package sepsp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	gg, grid := gridGraph(t, 9, 8, 41)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stats that derive from the parts must survive.
	a, b := ix.Stats(), loaded.Stats()
	if a.Shortcuts != b.Shortcuts || a.TreeHeight != b.TreeHeight ||
		a.QueryPhases != b.QueryPhases || a.QueryWork != b.QueryWork {
		t.Fatalf("stats differ: %+v vs %+v", a, b)
	}
	// Distances identical (bit-for-bit: same edges, same schedule).
	for _, src := range []int{0, 35, 71} {
		want := mustSSSP(t, ix, src)
		got := mustSSSP(t, loaded, src)
		for v := range want {
			if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
				t.Fatalf("src=%d v=%d: %v vs %v", src, v, got[v], want[v])
			}
		}
	}
	// The loaded index supports the full feature surface.
	if _, _, ok := mustPath(t, loaded, 0, 71); !ok {
		t.Fatal("path on loaded index failed")
	}
	if _, err := loaded.Reachable(0); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.BuildOracle(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream"), 0); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadRejectsCorruptTree(t *testing.T) {
	gg, grid := gridGraph(t, 5, 5, 42)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip some bytes in the middle of the payload: either the gob decode
	// or the tree validation must reject the result.
	data := buf.Bytes()
	for i := len(data) / 2; i < len(data)/2+8 && i < len(data); i++ {
		data[i] ^= 0xff
	}
	if _, err := Load(bytes.NewBuffer(data), 0); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	gg, grid := gridGraph(t, 9, 8, 41)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.gob")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ix.Stats(), loaded.Stats()
	if a.Shortcuts != b.Shortcuts || a.TreeHeight != b.TreeHeight {
		t.Fatalf("stats differ: %+v vs %+v", a, b)
	}
	want, got := mustSSSP(t, ix, 0), mustSSSP(t, loaded, 0)
	for v := range want {
		if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
			t.Fatalf("v=%d: %v vs %v", v, got[v], want[v])
		}
	}
	// No temp litter after a successful save: exactly the final file remains.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "index.gob" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after save: %v", names)
	}
}

func TestSaveFileReplacesAtomically(t *testing.T) {
	gg, grid := gridGraph(t, 5, 5, 42)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.gob")
	// Pre-existing garbage at the target path must be replaced wholesale,
	// not appended to or partially overwritten.
	if err := os.WriteFile(path, []byte("stale garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, 0); err != nil {
		t.Fatalf("load after overwrite: %v", err)
	}
}

func TestSaveFileFailureLeavesNoLitter(t *testing.T) {
	gg, grid := gridGraph(t, 5, 5, 42)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	// A degraded index refuses to persist; the temp file it opened before
	// discovering that must be cleaned up.
	deg := &Index{g: ix.g, ex: ix.ex} // eng nil → degraded → Save fails
	dir := t.TempDir()
	if err := deg.SaveFile(filepath.Join(dir, "index.gob")); err == nil {
		t.Fatal("degraded save succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("failed save left litter: %v", names)
	}
}

// TestSaveFileFsyncsDir asserts the durability call path: after the atomic
// rename, SaveFile must flush the PARENT directory (where the rename's
// metadata lives), and a directory-sync failure must surface as a save
// error — silently skipping it would undo the crash-safety the rename buys.
func TestSaveFileFsyncsDir(t *testing.T) {
	gg, grid := gridGraph(t, 5, 5, 42)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.gob")

	var synced []string
	orig := fsyncDir
	fsyncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	defer func() { fsyncDir = orig }()

	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("dir fsync calls = %v, want exactly [%s]", synced, dir)
	}

	// An injected directory-sync failure propagates, and the directory still
	// holds only the (already renamed) final file — no temp litter.
	fsyncDir = func(string) error { return errors.New("injected dir fsync failure") }
	if err := ix.SaveFile(path); err == nil {
		t.Fatal("SaveFile swallowed a directory fsync failure")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "index.gob" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after failed dir fsync: %v", names)
	}
	// The blob renamed into place before the failing sync must still load —
	// the error reports reduced durability, not a torn file.
	if _, err := LoadFile(path, 0); err != nil {
		t.Fatalf("load after dir-fsync failure: %v", err)
	}
}

// TestFsyncDirDefault exercises the real implementation: syncing an
// existing directory succeeds (EINVAL/ENOTSUP from sync-averse filesystems
// is tolerated inside), and a missing directory reports the open error.
func TestFsyncDirDefault(t *testing.T) {
	if err := fsyncDir(t.TempDir()); err != nil {
		t.Fatalf("fsyncDir on a real directory: %v", err)
	}
	if err := fsyncDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("fsyncDir on a missing directory succeeded")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.gob"), 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzLoad feeds arbitrary bytes to Load. Load must never panic: it returns
// either an *Index or an error wrapping ErrCorruptIndex, and an index with
// vertices must answer SSSPContext(ctx, 0) without panicking (a recovered
// panic would surface as a *PanicError). The seeds are a small grid index's
// Save blob, truncations of it, and a bit-flipped copy — the inputs
// TestLoadTruncatedBlob and TestLoadBitFlippedBlobNeverPanics loop over.
func FuzzLoad(f *testing.F) {
	g, _ := gridGraph(f, 5, 5, 13)
	ix, err := Build(g, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	blob := buf.Bytes()
	f.Add(blob)
	for _, cut := range []int{0, 1, len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:cut])
	}
	flipped := bytes.Clone(blob)
	flipped[len(flipped)/2] ^= 1 << 3
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Load(bytes.NewReader(data), 0)
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("Load: err = %v, want ErrCorruptIndex", err)
			}
			return
		}
		if ix == nil {
			t.Fatal("Load returned neither an index nor an error")
		}
		if ix.g.N() == 0 {
			return
		}
		var pe *PanicError
		if _, err := ix.SSSPContext(context.Background(), 0); errors.As(err, &pe) {
			t.Fatalf("SSSPContext on a loaded index panicked: %v", pe)
		}
	})
}
