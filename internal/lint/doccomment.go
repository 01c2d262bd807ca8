package lint

import (
	"go/ast"
	"go/token"

	"osdp/internal/lint/analysis"
	"strings"
)

// DocComment is the documentation lint, migrated here from the old
// docs_lint_test.go so it rides the same driver, suppression policy,
// and CI gate as the invariant analyzers. Every exported top-level
// identifier in the documented-surface packages must carry a doc
// comment starting with the identifier's name per godoc convention
// (the standard "A "/"An "/"The " openers are allowed). A doc comment
// on a const/var group covers its members.
//
// Coverage: the columnar data plane, the histogram substrate, the
// serving layer, and — new with the analyzer migration — the
// observability and durability planes (telemetry, ledger, audit),
// whose exported surfaces carry concurrency and durability contracts
// that MUST be written down.
var DocComment = &analysis.Analyzer{
	Name: "doccomment",
	Doc:  "exported identifiers in documented-surface packages need godoc-convention doc comments",
	Run:  runDocComment,
}

// documentedSurface lists the packages whose exported surface is held
// to the doc-comment standard.
var documentedSurface = []string{
	"osdp/internal/dataset",
	"osdp/internal/histogram",
	"osdp/internal/server",
	"osdp/internal/telemetry",
	"osdp/internal/ledger",
	"osdp/internal/audit",
	"osdp/internal/wal",
}

func runDocComment(pass *analysis.Pass) error {
	if !pass.PathIn(documentedSurface...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				checkDoc(pass, d.Pos(), d.Doc, d.Name.Name)
			case *ast.GenDecl:
				lintGenDecl(pass, d)
			}
		}
	}
	return nil
}

// exportedReceiver reports whether a method's receiver type is exported
// (methods on unexported types are not part of the godoc surface).
func exportedReceiver(d *ast.FuncDecl) bool {
	_, typ, _, isMethod := receiverName(d)
	if !isMethod {
		return true // plain function
	}
	if typ == "" {
		return true // unusual shape: lint rather than skip
	}
	return ast.IsExported(typ)
}

// lintGenDecl checks type/const/var declarations: a doc comment on the
// group covers its members; otherwise each exported member needs its
// own.
func lintGenDecl(pass *analysis.Pass, d *ast.GenDecl) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			doc := s.Doc
			if doc == nil && groupDoc && len(d.Specs) == 1 {
				doc = d.Doc
			}
			checkDoc(pass, s.Pos(), doc, s.Name.Name)
		case *ast.ValueSpec:
			var exported *ast.Ident
			for _, name := range s.Names {
				if name.IsExported() {
					exported = name
					break
				}
			}
			if exported == nil {
				continue
			}
			if s.Doc == nil && s.Comment == nil && !groupDoc {
				pass.Reportf(s.Pos(), "exported %s %s has no doc comment (and its group has none)",
					tokenName(d.Tok), exported.Name)
			}
		}
	}
}

// checkDoc requires a doc comment that follows the "Name ..." godoc
// convention (allowing the standard "A Name"/"An Name"/"The Name"
// openers).
func checkDoc(pass *analysis.Pass, pos token.Pos, doc *ast.CommentGroup, name string) {
	if doc == nil || strings.TrimSpace(doc.Text()) == "" {
		pass.Reportf(pos, "exported %s has no doc comment", name)
		return
	}
	text := strings.TrimSpace(doc.Text())
	for _, opener := range []string{"", "A ", "An ", "The "} {
		if strings.HasPrefix(text, opener+name) {
			return
		}
	}
	pass.Reportf(pos, "doc comment for %s does not start with %q (godoc convention)", name, name)
}

func tokenName(tok token.Token) string {
	switch tok {
	case token.CONST:
		return "const"
	case token.VAR:
		return "var"
	default:
		return "declaration"
	}
}
