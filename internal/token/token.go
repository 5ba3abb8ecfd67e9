// Package token defines the lexical tokens of the MiniC language and
// source positions used across the frontend.
//
// MiniC is the C subset used throughout this repository as the input
// language for the Usher analysis. It is a strict superset of the paper's
// TinyC: it adds structs, arrays, multi-level pointers, function pointers
// and the usual C statement forms, all of which lower onto the TinyC-style
// IR in package ir.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF

	IDENT  // main
	NUMBER // 12345
	STRING // "abc" (string literal, decoded; also #include paths)
	CHAR   // 'a' (character literal, decoded to one byte)

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	COMMA    // ,
	SEMI     // ;
	ASSIGN   // =
	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	AMP      // &
	PIPE     // |
	CARET    // ^
	SHL      // <<
	SHR      // >>
	NOT      // !
	TILDE    // ~
	EQ       // ==
	NEQ      // !=
	LT       // <
	GT       // >
	LEQ      // <=
	GEQ      // >=
	LAND     // &&
	LOR      // ||
	DOT      // .
	ELLIPSIS // ... (variadic parameter marker)
	ARROW    // ->
	PLUSPLUS // ++ (desugared by the parser)
	MINUSMINUS
	PLUSASSIGN  // +=
	MINUSASSIGN // -=
	INCLUDE     // #include

	KwInt
	KwChar
	KwVoid
	KwStruct
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwSizeof
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", IDENT: "IDENT", NUMBER: "NUMBER",
	STRING: "STRING", CHAR: "CHAR", INCLUDE: "#include",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACKET: "[", RBRACKET: "]", COMMA: ",", SEMI: ";",
	ASSIGN: "=", PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/",
	PERCENT: "%", AMP: "&", PIPE: "|", CARET: "^", SHL: "<<", SHR: ">>",
	NOT: "!", TILDE: "~", EQ: "==", NEQ: "!=", LT: "<", GT: ">",
	LEQ: "<=", GEQ: ">=", LAND: "&&", LOR: "||", DOT: ".", ELLIPSIS: "...",
	ARROW:    "->",
	PLUSPLUS: "++", MINUSMINUS: "--", PLUSASSIGN: "+=", MINUSASSIGN: "-=",
	KwInt: "int", KwChar: "char", KwVoid: "void", KwStruct: "struct", KwIf: "if",
	KwElse: "else", KwWhile: "while", KwFor: "for", KwReturn: "return",
	KwBreak: "break", KwContinue: "continue", KwSizeof: "sizeof",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps reserved words to their kinds.
var Keywords = map[string]Kind{
	"int": KwInt, "char": KwChar, "void": KwVoid, "struct": KwStruct, "if": KwIf,
	"else": KwElse, "while": KwWhile, "for": KwFor, "return": KwReturn,
	"break": KwBreak, "continue": KwContinue, "sizeof": KwSizeof,
}

// Pos is a source position: 1-based line and column within a named file.
type Pos struct {
	File string
	Line int
	Col  int
}

// String formats the position as file:line:col.
func (p Pos) String() string {
	f := p.File
	if f == "" {
		f = "<input>"
	}
	return fmt.Sprintf("%s:%d:%d", f, p.Line, p.Col)
}

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token with its source text and position.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// String formats the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, NUMBER, STRING, CHAR:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
