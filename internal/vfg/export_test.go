package vfg

// ReferenceResolveWith exposes the test-only reference resolver to the
// external test package.
var ReferenceResolveWith = referenceResolveWith
