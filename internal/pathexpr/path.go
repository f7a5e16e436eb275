// Package pathexpr implements paths and path expressions over object
// labels, the navigation core of the paper's Section 2. A path is a
// sequence of labels separated by dots (professor.student); a path
// expression is a regular expression of paths, with "?" matching any single
// label and "*" matching any path (zero or more labels). The package
// evaluates expressions over graphs (constant paths by a level-by-level
// walk, the rest by a product construction that is safe on cyclic data),
// tests whether a constant path is an instance of an expression, and
// computes Brzozowski derivatives — the residual expression after
// consuming a path prefix — which the wildcard-view maintenance extension
// relies on.
package pathexpr

import (
	"fmt"
	"strings"
)

// Path is a sequence of zero or more object labels. The empty path reaches
// only the starting object itself.
type Path []string

// ParsePath parses a dotted label sequence such as "professor.age". The
// empty string parses to the empty path. Labels must not be empty and must
// not contain the wildcard or operator characters of path expressions; use
// Parse for expressions.
func ParsePath(s string) (Path, error) {
	if s == "" {
		return Path{}, nil
	}
	parts := strings.Split(s, ".")
	p := make(Path, 0, len(parts))
	for _, part := range parts {
		if part == "" {
			return nil, fmt.Errorf("pathexpr: empty label in path %q", s)
		}
		if strings.ContainsAny(part, "*?()|") {
			return nil, fmt.Errorf("pathexpr: label %q contains expression syntax; use Parse", part)
		}
		p = append(p, part)
	}
	return p, nil
}

// MustParsePath is ParsePath for constant paths in tests and examples.
func MustParsePath(s string) Path {
	p, err := ParsePath(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the path in dotted form; the empty path renders as "ε".
func (p Path) String() string {
	if len(p) == 0 {
		return "ε"
	}
	return strings.Join(p, ".")
}

// Equal reports whether two paths are the same label sequence (the paper's
// p1 = p2 definition).
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether q is a prefix of p.
func (p Path) HasPrefix(q Path) bool {
	if len(q) > len(p) {
		return false
	}
	return p[:len(q)].Equal(q)
}

// HasSuffix reports whether q is a suffix of p. Algorithm 1's deletion case
// tests "p = p1.cond_path", i.e. whether cond_path is a suffix of p.
func (p Path) HasSuffix(q Path) bool {
	if len(q) > len(p) {
		return false
	}
	return p[len(p)-len(q):].Equal(q)
}

// Concat returns the concatenation p.q as a fresh path.
func (p Path) Concat(q Path) Path {
	out := make(Path, 0, len(p)+len(q))
	out = append(out, p...)
	out = append(out, q...)
	return out
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	out := make(Path, len(p))
	copy(out, p)
	return out
}
