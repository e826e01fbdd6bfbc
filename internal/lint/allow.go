package lint

import (
	"go/token"
	"slices"
	"strings"
)

// allowAnalyzerName attributes diagnostics about the suppression mechanism
// itself (malformed or stale //lint:allow comments). They are not
// suppressible: an allow comment cannot vouch for another allow comment.
const allowAnalyzerName = "lintallow"

// allowPrefix is the suppression comment marker. The full form is
//
//	//lint:allow <analyzer> <reason>
//
// and it silences diagnostics of that analyzer on its own line or the line
// directly below (so it works both as a trailing comment and as a line of its
// own above the offending statement).
const allowPrefix = "//lint:allow"

type allow struct {
	pos      token.Position
	analyzer string
	used     bool
}

type allowSet []*allow

// match returns the allow suppressing d, if any.
func (as allowSet) match(d Diagnostic) *allow {
	for _, al := range as {
		if al.analyzer != d.Analyzer || al.pos.Filename != d.Pos.Filename {
			continue
		}
		if al.pos.Line == d.Pos.Line || al.pos.Line == d.Pos.Line-1 {
			return al
		}
	}
	return nil
}

// collectAllows extracts the package's allow comments plus diagnostics for
// malformed ones (missing analyzer name or reason, or naming an analyzer the
// suite does not have — a typo would otherwise silently suppress nothing).
func collectAllows(pkg *Package) (allowSet, []Diagnostic) {
	var (
		allows allowSet
		broken []Diagnostic
		names  []string // what an allow may name: Suite's analyzers
	)
	for _, a := range Suite(nil) {
		names = append(names, a.Name)
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				switch {
				case len(fields) < 2:
					broken = append(broken, Diagnostic{
						Pos:      pos,
						Analyzer: allowAnalyzerName,
						Message:  "malformed //lint:allow: need an analyzer name and a justification, e.g. //lint:allow detrand <why this is safe>",
					})
				case !slices.Contains(names, fields[0]):
					broken = append(broken, Diagnostic{
						Pos:      pos,
						Analyzer: allowAnalyzerName,
						Message:  "unknown analyzer " + strings.Trim(fields[0], `"`) + " in //lint:allow (have " + strings.Join(names, ", ") + ")",
					})
				default:
					allows = append(allows, &allow{pos: pos, analyzer: fields[0]})
				}
			}
		}
	}
	return allows, broken
}
