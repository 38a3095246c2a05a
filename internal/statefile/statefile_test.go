package statefile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestUpdate pins Update's contract row by row: what merge sees, what
// a failed merge leaves behind, and that concurrent writers serialise.
func TestUpdate(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T, path string)
	}{
		{"missing file merges as nil", func(t *testing.T, path string) {
			var seen []byte
			called := false
			if err := Update(path, func(cur []byte) ([]byte, error) {
				seen, called = cur, true
				return []byte("v1"), nil
			}); err != nil {
				t.Fatal(err)
			}
			if !called || seen != nil {
				t.Fatalf("merge called=%v with %q, want nil", called, seen)
			}
			wantFile(t, path, "v1")
		}},
		{"existing contents are passed to merge", func(t *testing.T, path string) {
			writeFile(t, path, "old")
			if err := Update(path, func(cur []byte) ([]byte, error) {
				return append(cur, "+new"...), nil
			}); err != nil {
				t.Fatal(err)
			}
			wantFile(t, path, "old+new")
		}},
		{"merge error leaves the file untouched", func(t *testing.T, path string) {
			writeFile(t, path, "keep")
			boom := errors.New("boom")
			if err := Update(path, func([]byte) ([]byte, error) { return []byte("lost"), boom }); !errors.Is(err, boom) {
				t.Fatalf("Update = %v, want the merge error", err)
			}
			wantFile(t, path, "keep")
			ents, err := os.ReadDir(filepath.Dir(path))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.Contains(e.Name(), ".tmp-") {
					t.Fatalf("temp file %s left behind", e.Name())
				}
			}
		}},
		{"parent directory is created", func(t *testing.T, path string) {
			nested := filepath.Join(filepath.Dir(path), "a", "b", "state.json")
			if err := Update(nested, func([]byte) ([]byte, error) { return []byte("x"), nil }); err != nil {
				t.Fatal(err)
			}
			wantFile(t, nested, "x")
		}},
		{"concurrent appends lose no update", func(t *testing.T, path string) {
			const n = 16
			var wg sync.WaitGroup
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs <- Update(path, func(cur []byte) ([]byte, error) {
						return append(cur, strconv.Itoa(i)+"\n"...), nil
					})
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
			seen := map[string]bool{}
			for _, l := range lines {
				seen[string(l)] = true
			}
			if len(lines) != n || len(seen) != n {
				t.Fatalf("%d lines, %d distinct after %d concurrent appends:\n%s", len(lines), len(seen), n, data)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, filepath.Join(t.TempDir(), "state.json"))
		})
	}
}

func writeFile(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}

func wantFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s = %q, want %q", filepath.Base(path), got, want)
	}
}
