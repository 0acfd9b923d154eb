package sepsp

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"sepsp/internal/augment"
	"sepsp/internal/core"
	"sepsp/internal/graph"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// indexDTO is the serialized form of an Index: the graph, the decomposition
// tree, and the computed shortcut set. Loading reconstructs the engine
// without redoing the preprocessing.
type indexDTO struct {
	Version   int
	N         int
	Edges     []graph.Edge
	Nodes     []separator.Node
	Shortcuts []graph.Edge
	RawCount  int64
	Algorithm int
	// Epoch is the index's lifecycle generation tag (version ≥ 2; gob
	// leaves it 0 when decoding a version-1 blob, which is exactly the
	// unmanaged-index tag). Persisting it keeps epochs monotone across a
	// save/restart/load cycle of a managed index.
	Epoch uint64
}

// persistVersion is the current on-disk format. History:
//
//	1: graph + decomposition + E+ shortcuts
//	2: adds Epoch (lifecycle generation tag)
//
// Load accepts any version in [1, persistVersion]; absent fields decode as
// their zero values.
const persistVersion = 2

// Save serializes the index (graph + decomposition + E+) so a later Load
// can answer queries without re-running the preprocessing. A degraded index
// has no decomposition to persist; Save fails with ErrDegraded.
func (ix *Index) Save(w io.Writer) error {
	if !ix.primary() {
		return fmt.Errorf("%w: nothing to persist", ErrDegraded)
	}
	dto := indexDTO{
		Version:   persistVersion,
		N:         ix.eng.Graph().N(),
		Edges:     ix.eng.Graph().EdgeList(),
		Nodes:     ix.eng.Tree().Nodes,
		Shortcuts: ix.eng.Augmentation().Edges,
		RawCount:  ix.eng.Augmentation().RawCount,
		Algorithm: int(ix.alg),
		Epoch:     ix.Epoch(),
	}
	return gob.NewEncoder(w).Encode(&dto)
}

// SaveFile persists the index to path crash-safely: the blob is written to
// a temporary file in path's directory, fsynced, and atomically renamed
// into place, so a crash mid-save can never leave a torn blob at path — a
// reader sees either the complete old contents or the complete new ones.
// The containing directory is fsynced after the rename so the rename
// itself survives a crash; a directory-sync failure is reported (except on
// filesystems that simply do not support syncing directories).
func (ix *Index) SaveFile(path string) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("sepsp: save %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name()) // never leave temp litter on failure
		}
	}()
	if err = ix.Save(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("sepsp: save %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("sepsp: save %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("sepsp: save %s: %w", path, err)
	}
	// Durability of the rename needs the directory entry flushed as well:
	// on ext4/xfs the rename lives in the directory's metadata, and a crash
	// before that metadata commits can resurrect the old entry even though
	// the file's own bytes are safe on disk.
	if err = fsyncDir(dir); err != nil {
		return fmt.Errorf("sepsp: save %s: sync dir: %w", path, err)
	}
	return nil
}

// fsyncDir flushes a directory's entries so a completed rename inside it
// survives a crash. Filesystems that refuse to sync directories (EINVAL /
// ENOTSUP on some network and FUSE mounts) are tolerated — the data file
// itself was already fsynced. A package-level hook so tests can assert the
// call path and inject failures.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// LoadFile reads an index persisted by SaveFile (or Save). See Load for
// validation and worker semantics.
func LoadFile(path string, workers int) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sepsp: load %s: %w", path, err)
	}
	defer f.Close()
	return Load(f, workers)
}

// validate structurally checks a decoded blob BEFORE any of it is indexed
// into, so a truncated or bit-flipped stream surfaces as ErrCorruptIndex
// instead of an out-of-range panic deep inside reconstruction.
func (dto *indexDTO) validate() error {
	if dto.N < 0 {
		return fmt.Errorf("negative vertex count %d", dto.N)
	}
	if dto.RawCount < 0 {
		return fmt.Errorf("negative shortcut raw count %d", dto.RawCount)
	}
	if a := core.Algorithm(dto.Algorithm); a != core.Alg41 && a != core.Alg43 {
		return fmt.Errorf("unknown algorithm tag %d", dto.Algorithm)
	}
	if err := validEdges("edge", dto.Edges, dto.N); err != nil {
		return err
	}
	if err := validEdges("shortcut", dto.Shortcuts, dto.N); err != nil {
		return err
	}
	// The root's vertex list holds every vertex, so checking it first
	// bounds N by the blob's own size before anything N-sized is built.
	nn := len(dto.Nodes)
	if nn == 0 || len(dto.Nodes[0].V) != dto.N {
		return fmt.Errorf("decomposition root does not cover the %d vertices", dto.N)
	}
	for i := range dto.Nodes {
		nd := &dto.Nodes[i]
		if nd.ID != i {
			return fmt.Errorf("node %d: ID %d does not match its position", i, nd.ID)
		}
		if nd.Parent < -1 || nd.Parent >= nn {
			return fmt.Errorf("node %d: parent %d out of range [-1,%d)", i, nd.Parent, nn)
		}
		if nd.Level < 0 || nd.Level >= nn {
			return fmt.Errorf("node %d: level %d out of range [0,%d)", i, nd.Level, nn)
		}
		// Children are either both the -1 leaf marker or both real nodes.
		c0, c1 := nd.Children[0], nd.Children[1]
		if c0 < 0 || c1 < 0 {
			if c0 != -1 || c1 != -1 {
				return fmt.Errorf("node %d: malformed leaf marker children (%d,%d)", i, c0, c1)
			}
		} else if c0 >= nn || c1 >= nn {
			return fmt.Errorf("node %d: children (%d,%d) out of range [0,%d)", i, c0, c1, nn)
		}
		for _, vs := range [...][]int{nd.V, nd.S, nd.B} {
			for _, v := range vs {
				if v < 0 || v >= dto.N {
					return fmt.Errorf("node %d: vertex %d out of range [0,%d)", i, v, dto.N)
				}
			}
		}
	}
	return nil
}

func validEdges(kind string, edges []graph.Edge, n int) error {
	for i, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("%s %d: endpoints (%d,%d) out of range [0,%d)", kind, i, e.From, e.To, n)
		}
		if err := graph.CheckWeight(e.W); err != nil {
			return fmt.Errorf("%s %d (%d→%d): %v", kind, i, e.From, e.To, err)
		}
	}
	return nil
}

// Load reconstructs an Index previously written by Save. workers configures
// the executor as in Options.Workers (0 = sequential, negative =
// GOMAXPROCS).
//
// The blob is fully validated before use — a broken gob stream, an
// unsupported version, out-of-range endpoints or vertex lists, invalid
// weights, or a decomposition that does not cover the graph all return an
// error wrapping ErrCorruptIndex rather than panicking.
func Load(r io.Reader, workers int) (*Index, error) {
	var dto indexDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	if dto.Version < 1 || dto.Version > persistVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptIndex, dto.Version)
	}
	if err := dto.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	g := graph.FromEdges(dto.N, dto.Edges)
	tree, err := separator.FromNodes(dto.N, dto.Nodes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	if err := tree.Validate(graph.NewSkeleton(g)); err != nil {
		return nil, fmt.Errorf("%w: corrupt decomposition: %v", ErrCorruptIndex, err)
	}
	var ex *pram.Executor
	if workers == 0 {
		ex = pram.Sequential
	} else {
		ex = pram.NewExecutor(workers)
	}
	res := &augment.Result{Edges: dto.Shortcuts, RawCount: dto.RawCount}
	eng := core.NewEngineFromParts(g, tree, res, ex)
	ix := &Index{eng: eng, g: g, ex: ex, alg: core.Algorithm(dto.Algorithm)}
	ix.epoch.Store(dto.Epoch) // 0 for pre-epoch (version 1) blobs
	ix.stats = Stats{
		Shortcuts:     len(res.Edges),
		TreeHeight:    tree.Height,
		MaxSeparator:  tree.MaxSeparatorSize(),
		DiameterBound: eng.DiameterBound(),
		QueryPhases:   eng.Schedule().Phases(),
		QueryWork:     eng.Schedule().WorkPerSource(),
	}
	return ix, nil
}
