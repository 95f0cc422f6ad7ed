package storefs_test

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"optimatch/internal/faultfs"
	"optimatch/internal/storefs"
)

// TestConformance pins the package-os semantics the FS contract promises
// (and internal/store relies on) for the production implementation and for
// the fault injector wrapping it with nothing armed.
func TestConformance(t *testing.T) {
	impls := []struct {
		name string
		fsys storefs.FS
	}{
		{"OS", storefs.OS{}},
		{"faultfs(OS)", faultfs.Wrap(storefs.OS{})},
	}
	write := func(t *testing.T, path, content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, fsys storefs.FS, dir string)
	}{
		{"missing file is fs.ErrNotExist", func(t *testing.T, fsys storefs.FS, dir string) {
			missing := filepath.Join(dir, "nope")
			if _, err := fsys.Open(missing); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("Open: err = %v, want fs.ErrNotExist", err)
			}
			if _, err := fsys.ReadFile(missing); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("ReadFile: err = %v, want fs.ErrNotExist", err)
			}
		}},
		{"Rename replaces an existing destination", func(t *testing.T, fsys storefs.FS, dir string) {
			src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
			write(t, src, "new")
			write(t, dst, "old")
			if err := fsys.Rename(src, dst); err != nil {
				t.Fatal(err)
			}
			if got, err := fsys.ReadFile(dst); err != nil || string(got) != "new" {
				t.Errorf("destination = %q, %v; want the renamed content", got, err)
			}
			if _, err := fsys.ReadFile(src); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("source after rename: err = %v, want fs.ErrNotExist", err)
			}
		}},
		{"Truncate shrinks and zero-extends", func(t *testing.T, fsys storefs.FS, dir string) {
			path := filepath.Join(dir, "f")
			write(t, path, "abcdef")
			if err := fsys.Truncate(path, 3); err != nil {
				t.Fatal(err)
			}
			if got, _ := fsys.ReadFile(path); string(got) != "abc" {
				t.Errorf("after shrink: %q, want %q", got, "abc")
			}
			if err := fsys.Truncate(path, 5); err != nil {
				t.Fatal(err)
			}
			if got, _ := fsys.ReadFile(path); !bytes.Equal(got, []byte("abc\x00\x00")) {
				t.Errorf("after extend: %q, want %q", got, "abc\x00\x00")
			}
		}},
		{"CreateTemp names are distinct", func(t *testing.T, fsys storefs.FS, dir string) {
			a, err := fsys.CreateTemp(dir, "snap-*.tmp")
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := fsys.CreateTemp(dir, "snap-*.tmp")
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if a.Name() == b.Name() {
				t.Errorf("both temp files are named %q", a.Name())
			}
			if filepath.Dir(a.Name()) != dir {
				t.Errorf("temp file %q not created in %q", a.Name(), dir)
			}
		}},
		{"a directory can be opened and synced", func(t *testing.T, fsys storefs.FS, dir string) {
			d, err := fsys.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if err := d.Sync(); err != nil {
				t.Errorf("Sync on a directory: %v", err)
			}
		}},
		{"File.Name is the opened path", func(t *testing.T, fsys storefs.FS, dir string) {
			path := filepath.Join(dir, "wal.log")
			f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if f.Name() != path {
				t.Errorf("OpenFile: Name() = %q, want %q", f.Name(), path)
			}
			r, err := fsys.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Name() != path {
				t.Errorf("Open: Name() = %q, want %q", r.Name(), path)
			}
		}},
	}
	for _, impl := range impls {
		for _, tc := range cases {
			t.Run(impl.name+"/"+tc.name, func(t *testing.T) {
				tc.run(t, impl.fsys, t.TempDir())
			})
		}
	}
}
