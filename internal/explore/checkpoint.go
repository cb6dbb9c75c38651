package explore

import (
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
)

// Checkpoint is the persisted progress of one Enumerate walk (or one shard
// of it): the full walk coordinates plus the running report, self-validated
// by an FNV-1a content checksum. The file is JSON so a human can inspect a
// paused run; Load refuses anything that does not round-trip exactly —
// truncated files, stray edits and version skew all fail loudly rather
// than silently restarting or, worse, resuming into a different space.
type Checkpoint struct {
	// Format and Version gate compatibility; see checkpointFormat and
	// checkpointVersion.
	Format  string
	Version int
	// Target identity: the walk may only resume against the same instance.
	Protocol         string
	N, T, MaxCrashes int
	// Mode is the walk mode the cursor indexes ("full" or "canonical") and
	// Space the normalized schedule space it walks.
	Mode  string
	Space Space
	// Shard is the slice of the walk this file tracks; Lo/Hi its index
	// range, Cursor the next unwalked index, Total the whole walk's length.
	Shard          Shard
	Lo, Hi, Cursor int64
	Total          int64
	// Report is the fold over [Lo, Cursor).
	Report *Report
	// Sum is the FNV-1a hex digest of this value serialized with Sum empty.
	Sum string
}

const (
	checkpointFormat  = "explore-checkpoint"
	checkpointVersion = 1
)

// digest computes the content checksum: FNV-1a over the compact JSON
// serialization with the Sum field blanked.
func (ck Checkpoint) digest() (string, error) {
	ck.Sum = ""
	raw, err := json.Marshal(ck)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// saveCheckpoint persists the walk state atomically (temp file + rename in
// the destination directory), so a crash mid-write leaves the previous
// checkpoint intact.
func (tg Target) saveCheckpoint(path string, s Space, mode string, sh Shard, lo, hi, cursor, total int64, rep *Report) error {
	ck := Checkpoint{
		Format: checkpointFormat, Version: checkpointVersion,
		Protocol: tg.Protocol, N: tg.N, T: tg.T, MaxCrashes: tg.MaxCrashes,
		Mode: mode, Space: s, Shard: sh,
		Lo: lo, Hi: hi, Cursor: cursor, Total: total,
		Report: rep,
	}
	sum, err := ck.digest()
	if err != nil {
		return fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	ck.Sum = sum
	raw, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	raw = append(raw, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file. Every failure mode
// is loud and specific: unreadable, unparseable, wrong format, unsupported
// version, checksum mismatch (truncation or stray edits) and inconsistent
// walk coordinates each get their own error.
func LoadCheckpoint(path string) (Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	return parseCheckpoint(raw, path)
}

// parseCheckpoint is LoadCheckpoint on bytes already in hand (and the
// surface FuzzCheckpoint hammers without filesystem round-trips).
func parseCheckpoint(raw []byte, path string) (Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		return ck, fmt.Errorf("explore: checkpoint %s: unparseable: %w", path, err)
	}
	if ck.Format != checkpointFormat {
		return ck, fmt.Errorf("explore: checkpoint %s: format %q, want %q", path, ck.Format, checkpointFormat)
	}
	if ck.Version != checkpointVersion {
		return ck, fmt.Errorf("explore: checkpoint %s: version %d, this build reads version %d", path, ck.Version, checkpointVersion)
	}
	sum, err := ck.digest()
	if err != nil {
		return ck, fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	if sum != ck.Sum {
		return ck, fmt.Errorf("explore: checkpoint %s: checksum mismatch (have %s, stored %s) — file truncated or edited", path, sum, ck.Sum)
	}
	if ck.Report == nil {
		return ck, fmt.Errorf("explore: checkpoint %s: missing report", path)
	}
	if ck.Lo < 0 || ck.Hi < ck.Lo || ck.Cursor < ck.Lo || ck.Cursor > ck.Hi || ck.Hi > ck.Total {
		return ck, fmt.Errorf("explore: checkpoint %s: inconsistent walk range lo=%d cursor=%d hi=%d total=%d",
			path, ck.Lo, ck.Cursor, ck.Hi, ck.Total)
	}
	if ck.Report.Walked != ck.Cursor-ck.Lo {
		return ck, fmt.Errorf("explore: checkpoint %s: report covers %d indices, cursor implies %d",
			path, ck.Report.Walked, ck.Cursor-ck.Lo)
	}
	return ck, nil
}

// matches verifies the checkpoint belongs to exactly this walk — same
// target instance, same normalized space, same mode, same shard, same walk
// length — so a resume can never silently mix spaces.
func (ck Checkpoint) matches(tg Target, s Space, mode string, sh Shard, total int64) error {
	if ck.Protocol != tg.Protocol || ck.N != tg.N || ck.T != tg.T || ck.MaxCrashes != tg.MaxCrashes {
		return fmt.Errorf("explore: checkpoint is for %s n=%d t=%d f=%d, resuming %s n=%d t=%d f=%d",
			ck.Protocol, ck.N, ck.T, ck.MaxCrashes, tg.Protocol, tg.N, tg.T, tg.MaxCrashes)
	}
	if ck.Mode != mode {
		return fmt.Errorf("explore: checkpoint walked in %s mode, this run wants %s", ck.Mode, mode)
	}
	if !reflect.DeepEqual(ck.Space, s) {
		return fmt.Errorf("explore: checkpoint space differs from this run's space")
	}
	if ck.Shard != sh {
		return fmt.Errorf("explore: checkpoint is shard %d/%d, this run is shard %d/%d",
			ck.Shard.Index, ck.Shard.Count, sh.Index, sh.Count)
	}
	if ck.Total != total {
		return fmt.Errorf("explore: checkpoint walk length %d, this run computes %d", ck.Total, total)
	}
	return nil
}

// MergeCheckpoints folds finished shard checkpoints into the whole walk's
// report. The files must cover the same target, space, mode and walk
// length, each must be finished (cursor at its range end), and together
// they must tile [0, Total) exactly; shard order is recovered from the
// ranges, so the merged report is byte-identical to an unsharded run's.
func MergeCheckpoints(paths []string) (*Report, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("explore: no checkpoints to merge")
	}
	cks := make([]Checkpoint, len(paths))
	for i, p := range paths {
		ck, err := LoadCheckpoint(p)
		if err != nil {
			return nil, err
		}
		if ck.Cursor != ck.Hi {
			return nil, fmt.Errorf("explore: checkpoint %s: unfinished (cursor %d of [%d,%d)) — resume it before merging",
				p, ck.Cursor, ck.Lo, ck.Hi)
		}
		cks[i] = ck
	}
	first := cks[0]
	for i, ck := range cks[1:] {
		if ck.Protocol != first.Protocol || ck.N != first.N || ck.T != first.T ||
			ck.MaxCrashes != first.MaxCrashes || ck.Mode != first.Mode ||
			ck.Total != first.Total || !reflect.DeepEqual(ck.Space, first.Space) {
			return nil, fmt.Errorf("explore: checkpoint %s does not match %s (different target, space, mode or walk length)",
				paths[i+1], paths[0])
		}
	}
	slices.SortFunc(cks, func(a, b Checkpoint) int { return cmp.Compare(a.Lo, b.Lo) })
	at := int64(0)
	for i, ck := range cks {
		if ck.Lo != at {
			return nil, fmt.Errorf("explore: shards do not tile the walk: index %d uncovered (shard %d starts at %d)",
				at, i, ck.Lo)
		}
		at = ck.Hi
	}
	if at != first.Total {
		return nil, fmt.Errorf("explore: shards do not tile the walk: indices [%d,%d) uncovered", at, first.Total)
	}
	out := cks[0].Report
	for _, ck := range cks[1:] {
		out.merge(ck.Report)
	}
	out.WalkTotal = first.Total
	return out, nil
}
