package repro_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// TestStdlibWithinGoVersion holds the module's non-test code to the go line
// of go.mod: no file may name a package-level func, type, var or const that
// the standard library added in a later release. go vet does not cover
// every release (go1.24.0's vet reports slices.Collect, new in go1.23, in a
// go 1.22 module, but passes runtime.AddCleanup, new in go1.24), and
// raising the go line instead would break the nested bench/ module. The
// lists of what each release added are the toolchain's own
// $GOROOT/api/go1.N.txt files; a selector counts when its left side is the
// name under which the file imports a standard package.
func TestStdlibWithinGoVersion(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^go 1\.(\d+)`).FindSubmatch(mod)
	if m == nil {
		t.Fatal("go.mod has no go 1.N line")
	}
	minor, _ := strconv.Atoi(string(m[1]))
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Fatalf("go env GOROOT: %v", err)
	}
	goroot := strings.TrimSpace(string(out))

	newer := map[string]string{} // "path.Name" -> the release that added it
	for n := minor + 1; ; n++ {
		release := fmt.Sprintf("go1.%d", n)
		data, err := os.ReadFile(filepath.Join(goroot, "api", release+".txt"))
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if sym, ok := apiSymbol(line); ok {
				newer[sym] = release
			}
		}
	}
	t.Logf("%d standard-library symbols newer than go 1.%d", len(newer), minor)

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module, or not code
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imported := map[string]string{} // the name a file uses -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := importName(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				sym := imported[x.Name] + "." + sel.Sel.Name
				if release, ok := newer[sym]; ok {
					t.Errorf("%s: %s is new in %s, and go.mod says go 1.%d", fset.Position(sel.Pos()), sym, release, minor)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// apiSymbol returns "path.Name" for a line of an api/go1.N.txt file that
// adds a package-level func, type, var or const, and false for any other
// line, such as a method, a struct field or an interface method.
func apiSymbol(line string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "pkg ")
	if !ok {
		return "", false
	}
	pkg, decl, ok := strings.Cut(rest, ", ")
	if !ok {
		return "", false
	}
	pkg, _, _ = strings.Cut(pkg, " ") // drop a "(linux-amd64)" qualifier
	kind, decl, _ := strings.Cut(decl, " ")
	switch kind {
	case "func", "var", "const":
	case "type":
		if strings.Contains(decl, " struct, ") || strings.Contains(decl, " interface, ") {
			return "", false // a field or a method of the type
		}
	default:
		return "", false
	}
	end := strings.IndexFunc(decl, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_'
	})
	if end <= 0 {
		return "", false
	}
	return pkg + "." + decl[:end], true
}

// importName is the name a package is used under when its import has none:
// the last path element, or the one before a major-version suffix
// ("math/rand/v2" is rand).
func importName(path string) string {
	elems := strings.Split(path, "/")
	last := elems[len(elems)-1]
	if _, err := strconv.Atoi(strings.TrimPrefix(last, "v")); err == nil && last[0] == 'v' && len(elems) > 1 {
		return elems[len(elems)-2]
	}
	return last
}
