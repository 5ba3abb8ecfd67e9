// Package parser implements a recursive-descent parser for MiniC.
//
// The grammar is a C subset with full C declarator syntax (pointers,
// arrays, function pointers). Compound assignments (+=, -=) and the ++/--
// operators are desugared to plain assignments during parsing.
package parser

import (
	"strconv"

	"github.com/valueflow/usher/internal/ast"
	"github.com/valueflow/usher/internal/diag"
	"github.com/valueflow/usher/internal/lexer"
	"github.com/valueflow/usher/internal/token"
)

// maxNest bounds the nesting depth of statements, expressions and
// declarators. The recursive-descent parser (and the recursive
// typechecker and lowerer behind it) consume native stack per nesting
// level, so unbounded nesting lets a small hostile input crash the
// process with an unrecoverable stack overflow. Real programs nest a
// few dozen levels at most.
const maxNest = 256

// bailout aborts parsing after an unrecoverable diagnostic (nesting
// limit exceeded). It is panicked internally and recovered in Parse.
type bailout struct{}

// Parser parses one MiniC translation unit.
type Parser struct {
	toks  []token.Token
	pos   int
	diags diag.List
	file  string
	prog  *ast.Program
	nest  int
}

// Parse parses src and returns the program. Lexical and syntax errors
// are accumulated as diagnostics and returned as a single error in
// source order; a partial tree is still returned. Parse never panics on
// malformed input.
func Parse(file, src string) (*ast.Program, error) {
	lx := lexer.New(file, src)
	p := &Parser{toks: lx.All(), file: file}
	p.run()
	for _, d := range lx.Errors() {
		p.diags.Add(d)
	}
	return p.prog, p.diags.Err()
}

// run drives parseProgram, recovering the bailout panic raised when the
// nesting limit is hit so that a partial tree and the accumulated
// diagnostics survive.
func (p *Parser) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
		}
	}()
	p.parseProgram()
}

// enter records one nesting level (statement, expression or declarator)
// and aborts the parse when the depth limit is exceeded.
func (p *Parser) enter() {
	p.nest++
	if p.nest > maxNest {
		p.errorf("nesting too deep (limit %d)", maxNest)
		panic(bailout{})
	}
}

func (p *Parser) leave() { p.nest-- }

func (p *Parser) cur() token.Token  { return p.toks[p.pos] }
func (p *Parser) peek() token.Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) advance() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.advance()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	p.errorfAt(p.cur().Pos, format, args...)
}

func (p *Parser) errorfAt(pos token.Pos, format string, args ...any) {
	p.diags.Addf(diag.PhaseParse, pos, format, args...)
}

// sync skips tokens until a likely statement/declaration boundary, for
// error recovery.
func (p *Parser) sync() {
	for !p.at(token.EOF) {
		if p.accept(token.SEMI) {
			return
		}
		if p.at(token.RBRACE) {
			return
		}
		p.advance()
	}
}

func (p *Parser) parseProgram() {
	p.prog = &ast.Program{File: p.file}
	for !p.at(token.EOF) {
		start := p.pos
		d := p.parseTopDecl()
		if d != nil {
			p.prog.Decls = append(p.prog.Decls, d)
		}
		if p.pos == start { // no progress: recover
			p.errorf("unexpected token %s", p.cur())
			p.advance()
		}
	}
}

func (p *Parser) parseTopDecl() ast.Decl {
	if p.at(token.INCLUDE) {
		hash := p.advance()
		if !p.at(token.STRING) {
			p.errorf(`expected "name" after #include, found %s`, p.cur())
			p.sync()
			return nil
		}
		path := p.advance()
		if path.Text == "" {
			p.errorfAt(path.Pos, "#include path must not be empty")
			return nil
		}
		return &ast.Include{HashPos: hash.Pos, Path: path.Text, PathPos: path.Pos}
	}
	if p.at(token.KwStruct) && p.peek().Kind == token.IDENT {
		// Either a struct definition or a declaration with struct base type.
		if p.toks[min(p.pos+2, len(p.toks)-1)].Kind == token.LBRACE {
			return p.parseStructDecl()
		}
	}
	base, ok := p.parseBaseType()
	if !ok {
		p.errorf("expected declaration, found %s", p.cur())
		p.sync()
		return nil
	}
	name, ty, params, plainFunc := p.parseDeclarator(base)
	if name == "" {
		p.errorf("expected declarator name")
		p.sync()
		return nil
	}
	namePos := ty.Pos()
	if plainFunc && (p.at(token.LBRACE) || p.at(token.SEMI)) {
		ft := ty.(*ast.FuncTypeExpr)
		fd := &ast.FuncDecl{NamePos: namePos, Ret: ft.Ret, Name: name, Params: params, Variadic: ft.Variadic}
		if p.accept(token.SEMI) {
			return fd // prototype
		}
		for _, pa := range fd.Params {
			if pa.Name == "" {
				p.errorfAt(pa.Pos, "parameter of %s needs a name", name)
			}
		}
		fd.Body = p.parseBlock()
		return fd
	}
	vd := &ast.VarDecl{NamePos: namePos, Type: ty, Name: name}
	if p.accept(token.ASSIGN) {
		vd.Init = p.parseAssignExpr()
	}
	p.expect(token.SEMI)
	return vd
}

func (p *Parser) parseStructDecl() *ast.StructDecl {
	pos := p.expect(token.KwStruct).Pos
	name := p.expect(token.IDENT).Text
	sd := &ast.StructDecl{NamePos: pos, Name: name}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		base, ok := p.parseBaseType()
		if !ok {
			p.errorf("expected field type, found %s", p.cur())
			p.sync()
			continue
		}
		fname, fty, _, _ := p.parseDeclarator(base)
		if fname == "" {
			p.errorf("expected field name")
		}
		sd.Fields = append(sd.Fields, ast.Field{Type: fty, Name: fname, Pos: fty.Pos()})
		p.expect(token.SEMI)
	}
	p.expect(token.RBRACE)
	p.expect(token.SEMI)
	return sd
}

// parseBaseType parses `int`, `void`, or `struct Name`; it returns ok=false
// without consuming input if the current token does not start a type.
func (p *Parser) parseBaseType() (ast.TypeExpr, bool) {
	switch p.cur().Kind {
	case token.KwInt:
		t := p.advance()
		return &ast.IntTypeExpr{P: t.Pos}, true
	case token.KwChar:
		t := p.advance()
		return &ast.CharTypeExpr{P: t.Pos}, true
	case token.KwVoid:
		t := p.advance()
		return &ast.VoidTypeExpr{P: t.Pos}, true
	case token.KwStruct:
		t := p.advance()
		name := p.expect(token.IDENT)
		return &ast.StructTypeExpr{P: t.Pos, Name: name.Text}, true
	}
	return nil, false
}

// typeWrap transforms the "type so far" into the declarator's final type.
type typeWrap func(ast.TypeExpr) ast.TypeExpr

// parseDeclarator parses a (possibly abstract) C declarator applied to
// base. It returns the declared name ("" when abstract), the complete
// type, the parameter list of the outermost function suffix (with names,
// when this is a plain function declarator like `f(int a)`), and whether
// the declarator is a plain function declarator.
func (p *Parser) parseDeclarator(base ast.TypeExpr) (string, ast.TypeExpr, []ast.Param, bool) {
	name, wrap, params, plain := p.declarator()
	return name, wrap(base), params, plain
}

func (p *Parser) declarator() (string, typeWrap, []ast.Param, bool) {
	p.enter()
	defer p.leave()
	stars := 0
	starPos := p.cur().Pos
	for p.accept(token.STAR) {
		stars++
	}
	// Pointer levels build a recursive TypeExpr chain that the checker
	// resolves recursively; cap them like any other nesting.
	if stars > maxNest {
		p.errorfAt(starPos, "too many pointer levels (limit %d)", maxNest)
		panic(bailout{})
	}
	name, direct, params, plain := p.directDeclarator()
	return name, func(t ast.TypeExpr) ast.TypeExpr {
		for i := 0; i < stars; i++ {
			t = &ast.PointerTypeExpr{P: starPos, Elem: t}
		}
		return direct(t)
	}, params, plain
}

func (p *Parser) directDeclarator() (string, typeWrap, []ast.Param, bool) {
	var name string
	inner := func(t ast.TypeExpr) ast.TypeExpr { return t }
	nested := false
	pos := p.cur().Pos

	switch {
	case p.at(token.IDENT):
		name = p.advance().Text
	case p.at(token.LPAREN) && p.nestedDeclaratorAhead():
		p.advance() // (
		var nestedParams []ast.Param
		name, inner, nestedParams, _ = p.declarator()
		_ = nestedParams
		p.expect(token.RPAREN)
		nested = true
	default:
		// Abstract declarator with no name (e.g. parameter `int*`).
	}

	type suffix struct {
		isArray   bool
		arrLen    int64
		fparams   []ast.Param
		ftypes    []ast.TypeExpr
		fvariadic bool
		pos       token.Pos
	}
	var suffixes []suffix
	var firstParams []ast.Param
	for {
		if len(suffixes) > maxNest {
			p.errorf("too many declarator suffixes (limit %d)", maxNest)
			panic(bailout{})
		}
		if p.at(token.LBRACKET) {
			sp := p.advance().Pos
			lenTok := p.expect(token.NUMBER)
			n, err := strconv.ParseInt(lenTok.Text, 10, 64)
			if err != nil {
				p.errorfAt(lenTok.Pos, "bad array length %q", lenTok.Text)
				n = 1
			}
			p.expect(token.RBRACKET)
			suffixes = append(suffixes, suffix{isArray: true, arrLen: n, pos: sp})
			continue
		}
		if p.at(token.LPAREN) {
			sp := p.advance().Pos
			ps, ts, variadic := p.parseParams()
			p.expect(token.RPAREN)
			suffixes = append(suffixes, suffix{fparams: ps, ftypes: ts, fvariadic: variadic, pos: sp})
			if firstParams == nil {
				firstParams = ps
				if firstParams == nil {
					firstParams = []ast.Param{}
				}
			}
			continue
		}
		break
	}

	plain := !nested && name != "" && len(suffixes) == 1 && !suffixes[0].isArray
	wrap := func(t ast.TypeExpr) ast.TypeExpr {
		for i := len(suffixes) - 1; i >= 0; i-- {
			s := suffixes[i]
			if s.isArray {
				t = &ast.ArrayTypeExpr{P: s.pos, Elem: t, Len: s.arrLen}
			} else {
				t = &ast.FuncTypeExpr{P: s.pos, Ret: t, Params: s.ftypes, Variadic: s.fvariadic}
			}
		}
		return inner(t)
	}
	_ = pos
	return name, wrap, firstParams, plain
}

// nestedDeclaratorAhead reports whether the '(' at the current position
// starts a nested declarator rather than a function parameter list.
func (p *Parser) nestedDeclaratorAhead() bool {
	switch p.peek().Kind {
	case token.STAR, token.IDENT, token.LPAREN:
		return true
	}
	return false
}

// parseParams parses a parameter list (already inside the parens). It
// returns named params (for definitions), bare types (for types), and
// whether the list ends with a variadic `...` marker.
func (p *Parser) parseParams() ([]ast.Param, []ast.TypeExpr, bool) {
	var ps []ast.Param
	var ts []ast.TypeExpr
	if p.at(token.RPAREN) {
		return ps, ts, false
	}
	if p.at(token.KwVoid) && p.peek().Kind == token.RPAREN {
		p.advance()
		return ps, ts, false
	}
	for {
		if p.at(token.ELLIPSIS) {
			t := p.advance()
			if len(ps) == 0 {
				p.errorfAt(t.Pos, "a variadic parameter list needs at least one named parameter before ...")
			}
			if !p.at(token.RPAREN) {
				p.errorf("... must be the last parameter")
			}
			return ps, ts, true
		}
		base, ok := p.parseBaseType()
		if !ok {
			p.errorf("expected parameter type, found %s", p.cur())
			return ps, ts, false
		}
		name, ty, _, _ := p.parseDeclarator(base)
		ps = append(ps, ast.Param{Type: ty, Name: name, Pos: ty.Pos()})
		ts = append(ts, ty)
		if !p.accept(token.COMMA) {
			return ps, ts, false
		}
	}
}

func (p *Parser) parseBlock() *ast.Block {
	b := &ast.Block{P: p.cur().Pos}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		start := p.pos
		b.Stmts = append(b.Stmts, p.parseStmt())
		if p.pos == start {
			p.errorf("unexpected token %s in block", p.cur())
			p.advance()
		}
	}
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) startsType() bool {
	switch p.cur().Kind {
	case token.KwInt, token.KwChar, token.KwVoid:
		return true
	case token.KwStruct:
		return true
	}
	return false
}

func (p *Parser) parseStmt() ast.Stmt {
	p.enter()
	defer p.leave()
	switch p.cur().Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMI:
		t := p.advance()
		return &ast.EmptyStmt{P: t.Pos}
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		t := p.advance()
		rs := &ast.ReturnStmt{P: t.Pos}
		if !p.at(token.SEMI) {
			rs.X = p.parseExpr()
		}
		p.expect(token.SEMI)
		return rs
	case token.KwBreak:
		t := p.advance()
		p.expect(token.SEMI)
		return &ast.BreakStmt{P: t.Pos}
	case token.KwContinue:
		t := p.advance()
		p.expect(token.SEMI)
		return &ast.ContinueStmt{P: t.Pos}
	}
	if p.startsType() {
		d := p.parseLocalDecl()
		return &ast.DeclStmt{Decl: d}
	}
	x := p.parseExpr()
	p.expect(token.SEMI)
	return &ast.ExprStmt{X: x}
}

func (p *Parser) parseLocalDecl() *ast.VarDecl {
	base, _ := p.parseBaseType()
	name, ty, _, _ := p.parseDeclarator(base)
	if name == "" {
		p.errorf("expected variable name")
		name = "_err"
	}
	vd := &ast.VarDecl{NamePos: ty.Pos(), Type: ty, Name: name}
	if p.accept(token.ASSIGN) {
		vd.Init = p.parseAssignExpr()
	}
	p.expect(token.SEMI)
	return vd
}

func (p *Parser) parseIf() *ast.IfStmt {
	t := p.expect(token.KwIf)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	s := &ast.IfStmt{P: t.Pos, Cond: cond, Then: p.parseStmt()}
	if p.accept(token.KwElse) {
		s.Else = p.parseStmt()
	}
	return s
}

func (p *Parser) parseWhile() *ast.WhileStmt {
	t := p.expect(token.KwWhile)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	return &ast.WhileStmt{P: t.Pos, Cond: cond, Body: p.parseStmt()}
}

func (p *Parser) parseFor() *ast.ForStmt {
	t := p.expect(token.KwFor)
	p.expect(token.LPAREN)
	s := &ast.ForStmt{P: t.Pos}
	if !p.at(token.SEMI) {
		if p.startsType() {
			s.Init = &ast.DeclStmt{Decl: p.parseLocalDecl()} // consumes ';'
		} else {
			s.Init = &ast.ExprStmt{X: p.parseExpr()}
			p.expect(token.SEMI)
		}
	} else {
		p.expect(token.SEMI)
	}
	if !p.at(token.SEMI) {
		s.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if !p.at(token.RPAREN) {
		s.Post = p.parseExpr()
	}
	p.expect(token.RPAREN)
	s.Body = p.parseStmt()
	return s
}

// Expressions, by precedence climbing.

func (p *Parser) parseExpr() ast.Expr { return p.parseAssignExpr() }

func (p *Parser) parseAssignExpr() ast.Expr {
	lhs := p.parseBinary(0)
	switch p.cur().Kind {
	case token.ASSIGN:
		t := p.advance()
		rhs := p.parseAssignExpr()
		return &ast.Assign{P: t.Pos, LHS: lhs, RHS: rhs}
	case token.PLUSASSIGN, token.MINUSASSIGN:
		t := p.advance()
		op := token.PLUS
		if t.Kind == token.MINUSASSIGN {
			op = token.MINUS
		}
		rhs := p.parseAssignExpr()
		return &ast.Assign{P: t.Pos, LHS: lhs,
			RHS: &ast.Binary{P: t.Pos, Op: op, X: cloneExpr(lhs), Y: rhs}}
	}
	return lhs
}

// binaryPrec returns the precedence of a binary operator, or -1.
func binaryPrec(k token.Kind) int {
	switch k {
	case token.LOR:
		return 1
	case token.LAND:
		return 2
	case token.PIPE:
		return 3
	case token.CARET:
		return 4
	case token.AMP:
		return 5
	case token.EQ, token.NEQ:
		return 6
	case token.LT, token.GT, token.LEQ, token.GEQ:
		return 7
	case token.SHL, token.SHR:
		return 8
	case token.PLUS, token.MINUS:
		return 9
	case token.STAR, token.SLASH, token.PERCENT:
		return 10
	}
	return -1
}

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for {
		prec := binaryPrec(p.cur().Kind)
		if prec < 0 || prec < minPrec {
			return lhs
		}
		t := p.advance()
		rhs := p.parseBinary(prec + 1)
		lhs = &ast.Binary{P: t.Pos, Op: t.Kind, X: lhs, Y: rhs}
	}
}

// parseUnary guards the nesting depth for all expression forms: every
// level of expression nesting (parenthesis, unary operator, binary
// operand, call argument, index) re-enters it.
func (p *Parser) parseUnary() ast.Expr {
	p.enter()
	defer p.leave()
	switch p.cur().Kind {
	case token.STAR, token.AMP, token.MINUS, token.NOT, token.TILDE:
		t := p.advance()
		return &ast.Unary{P: t.Pos, Op: t.Kind, X: p.parseUnary()}
	case token.PLUSPLUS, token.MINUSMINUS:
		// Prefix ++x desugars to x = x + 1 (value semantics of the result
		// are not needed in statement position, which is all MiniC allows).
		t := p.advance()
		x := p.parseUnary()
		op := token.PLUS
		if t.Kind == token.MINUSMINUS {
			op = token.MINUS
		}
		return &ast.Assign{P: t.Pos, LHS: x,
			RHS: &ast.Binary{P: t.Pos, Op: op, X: cloneExpr(x), Y: &ast.NumberLit{P: t.Pos, Value: 1}}}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.cur().Kind {
		case token.LBRACKET:
			t := p.advance()
			idx := p.parseExpr()
			p.expect(token.RBRACKET)
			x = &ast.Index{P: t.Pos, X: x, Idx: idx}
		case token.DOT:
			t := p.advance()
			name := p.expect(token.IDENT).Text
			x = &ast.FieldAccess{P: t.Pos, X: x, Name: name}
		case token.ARROW:
			t := p.advance()
			name := p.expect(token.IDENT).Text
			x = &ast.FieldAccess{P: t.Pos, X: x, Name: name, Arrow: true}
		case token.LPAREN:
			t := p.advance()
			call := &ast.Call{P: t.Pos, Fun: x}
			if !p.at(token.RPAREN) {
				for {
					call.Args = append(call.Args, p.parseAssignExpr())
					if !p.accept(token.COMMA) {
						break
					}
				}
			}
			p.expect(token.RPAREN)
			x = call
		case token.PLUSPLUS, token.MINUSMINUS:
			// Postfix x++ in statement position: same desugaring as prefix.
			t := p.advance()
			op := token.PLUS
			if t.Kind == token.MINUSMINUS {
				op = token.MINUS
			}
			x = &ast.Assign{P: t.Pos, LHS: x,
				RHS: &ast.Binary{P: t.Pos, Op: op, X: cloneExpr(x), Y: &ast.NumberLit{P: t.Pos, Value: 1}}}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() ast.Expr {
	switch p.cur().Kind {
	case token.NUMBER:
		t := p.advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.errorfAt(t.Pos, "bad number %q", t.Text)
		}
		return &ast.NumberLit{P: t.Pos, Value: v}
	case token.STRING:
		t := p.advance()
		return &ast.StringLit{P: t.Pos, Value: t.Text}
	case token.CHAR:
		t := p.advance()
		v := int64(0)
		if len(t.Text) > 0 {
			v = int64(t.Text[0])
		}
		return &ast.NumberLit{P: t.Pos, Value: v}
	case token.IDENT:
		t := p.advance()
		return &ast.Ident{P: t.Pos, Name: t.Text}
	case token.LPAREN:
		p.advance()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	case token.KwSizeof:
		t := p.advance()
		p.expect(token.LPAREN)
		base, ok := p.parseBaseType()
		if !ok {
			p.errorf("sizeof requires a type")
			p.expect(token.RPAREN)
			return &ast.NumberLit{P: t.Pos, Value: 1}
		}
		_, ty, _, _ := p.parseDeclarator(base)
		p.expect(token.RPAREN)
		return &ast.SizeofExpr{P: t.Pos, T: ty}
	}
	p.errorf("expected expression, found %s", p.cur())
	t := p.advance()
	return &ast.NumberLit{P: t.Pos, Value: 0}
}

// cloneExpr deep-copies an lvalue expression so desugared compound
// assignments do not share AST nodes between the LHS and RHS.
func cloneExpr(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case *ast.NumberLit:
		c := *e
		return &c
	case *ast.StringLit:
		c := *e
		return &c
	case *ast.Ident:
		c := *e
		return &c
	case *ast.Unary:
		return &ast.Unary{P: e.P, Op: e.Op, X: cloneExpr(e.X)}
	case *ast.Binary:
		return &ast.Binary{P: e.P, Op: e.Op, X: cloneExpr(e.X), Y: cloneExpr(e.Y)}
	case *ast.Index:
		return &ast.Index{P: e.P, X: cloneExpr(e.X), Idx: cloneExpr(e.Idx)}
	case *ast.FieldAccess:
		return &ast.FieldAccess{P: e.P, X: cloneExpr(e.X), Name: e.Name, Arrow: e.Arrow}
	case *ast.Call:
		c := &ast.Call{P: e.P, Fun: cloneExpr(e.Fun)}
		for _, a := range e.Args {
			c.Args = append(c.Args, cloneExpr(a))
		}
		return c
	case *ast.Assign:
		return &ast.Assign{P: e.P, LHS: cloneExpr(e.LHS), RHS: cloneExpr(e.RHS)}
	case *ast.SizeofExpr:
		c := *e
		return &c
	}
	return e
}
