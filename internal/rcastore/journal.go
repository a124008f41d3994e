package rcastore

// This file is the store's durability layer: a crash-consistent
// write-ahead journal plus checkpoint/recover. The journal records
// every report inserted since the last checkpoint, so a crash loses at
// most the appends an operator chose not to fsync yet (SyncEvery > 1)
// instead of everything since boot.
//
// Both files are segments of the frames segment.go defines:
//
//	checkpoint  — one Spill segment, replaced atomically (tmp + rename)
//	journal     — the segments appended since the last checkpoint. A
//	              segment begins lazily, on the first append after open,
//	              after a checkpoint and after a failed write, so an
//	              idle journal is 0 bytes and a row only ever refers to
//	              dict frames written before it in its own segment.
//
// Recovery loads the checkpoint, replays the journal, tolerates a torn
// final frame (a crash mid-append), and deduplicates by session ID so
// the crash window between "checkpoint renamed" and "journal truncated"
// cannot double-insert. The recovered store spills byte-identically to
// a gracefully shut-down one — pinned by
// TestJournalRecoverMatchesGracefulSpill.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// File is the subset of *os.File the journal needs. It exists so fault
// harnesses (internal/faultinject) can inject disk errors underneath
// the journal without touching the real filesystem.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Truncate changes the file's size, keeping the write offset for
	// O_APPEND handles at the new end.
	Truncate(size int64) error
}

// FS is the filesystem seam the journal and checkpoint path go
// through. OsFS is the real implementation; faultinject.FS injects
// deterministic write/sync/rename errors for crash testing.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// OsFS implements FS on the host filesystem.
type OsFS struct{}

// OpenFile implements FS.
func (OsFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Rename implements FS.
func (OsFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OsFS) Remove(name string) error { return os.Remove(name) }

// JournalOptions parameterize a journal; what it has done is read from
// Journal.Stats.
type JournalOptions struct {
	// FS is the filesystem the journal writes through; nil selects
	// OsFS.
	FS FS
	// SyncEvery batches fsyncs: the file is synced once every this many
	// appends (group commit). <= 1 (the default) syncs every append —
	// a report acked to the journal is durable before Append returns.
	SyncEvery int
}

func (o JournalOptions) defaults() JournalOptions {
	if o.FS == nil {
		o.FS = OsFS{}
	}
	if o.SyncEvery < 1 {
		o.SyncEvery = 1
	}
	return o
}

// Journal is a crash-consistent append log of store records. Append is
// safe for concurrent use; a Journal belongs to exactly one Store's
// insert stream (the caller appends every record it inserts).
type Journal struct {
	mu        sync.Mutex
	fs        FS
	f         File
	opts      JournalOptions
	sinceSync int
	closed    bool

	// The open segment: its dictionaries, and whether its start frame and
	// every dict frame so far are known to have been written.
	tables    tables
	inSegment bool
	enc       encoder
	row       row

	// Atomics, so Stats never waits on mu: Append holds it across its
	// fsync.
	appends, syncs, checkpoints atomic.Int64
}

// JournalStats counts a journal's work since it was opened.
type JournalStats struct {
	// Appends counts records written; Syncs the fsyncs the SyncEvery
	// policy and Sync made, so Appends/Syncs is the group-commit batch;
	// Checkpoints the checkpoints written and published.
	Appends, Syncs, Checkpoints int
}

// Stats returns the journal's counts without taking its lock, so a
// scrape never waits on an fsync. A nil journal has none.
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	return JournalStats{
		Appends:     int(j.appends.Load()),
		Syncs:       int(j.syncs.Load()),
		Checkpoints: int(j.checkpoints.Load()),
	}
}

// OpenJournal opens (creating if absent) a journal for appending.
// Callers that may be restarting after a crash should use Recover
// instead, which replays and repairs the tail before reopening.
func OpenJournal(path string, opts JournalOptions) (*Journal, error) {
	opts = opts.defaults()
	f, err := opts.FS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("rcastore: opening journal: %w", err)
	}
	return &Journal{fs: opts.FS, f: f, opts: opts, tables: newTables()}, nil
}

// Append writes one record — and, in the same write, a start frame if
// a segment must begin and a dict frame for every name the segment has
// not seen — fsyncing per the SyncEvery policy. An error leaves the
// journal usable: the failed entry may be torn on disk, which recovery
// tolerates at the tail, and the next append begins a new segment.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("rcastore: journal closed")
	}
	e, dicts := &j.enc, j.tables.all()
	e.out = e.out[:0]
	if !j.inSegment {
		for _, d := range dicts {
			d.names, d.spell, d.byName = d.names[:0], d.spell[:0], d.byName[:0]
			clear(d.index)
		}
		e.start()
	}
	// Until the write lands the segment is not one to append to: a dict
	// frame that never reached the file must not be referred to later.
	j.inSegment = false
	var before [numDicts]int
	for which, d := range dicts {
		before[which] = len(d.names)
	}
	j.tables.intern(&rec, &j.row)
	for which, d := range dicts {
		e.dict(which, d.names[before[which]:])
	}
	e.row(&j.row)
	if err := e.err; err != nil {
		e.err = nil
		return err
	}
	if _, err := j.f.Write(e.out); err != nil {
		return fmt.Errorf("rcastore: journal append: %w", err)
	}
	j.inSegment = true
	j.appends.Add(1)
	j.sinceSync++
	if j.sinceSync >= j.opts.SyncEvery {
		return j.syncLocked()
	}
	return nil
}

// Sync forces any batched appends to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	j.sinceSync = 0
	if err := j.f.Sync(); err != nil {
		// The kernel may have dropped what the sync failed to write.
		j.inSegment = false
		return fmt.Errorf("rcastore: journal sync: %w", err)
	}
	j.syncs.Add(1)
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Checkpoint atomically persists the store's full retained state to
// checkpointPath (spill to a temp file, fsync, rename) and then resets
// the journal to empty. Crash ordering is safe at every step: before
// the rename the old checkpoint + full journal recover the store;
// after the rename but before the truncate, replay deduplicates the
// journaled sessions already present in the new checkpoint.
func (j *Journal) Checkpoint(st *Store, checkpointPath string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("rcastore: journal closed")
	}
	// Durability order part 1: the journal must be complete on disk
	// before the checkpoint that supersedes it.
	j.sinceSync = 0
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("rcastore: journal sync before checkpoint: %w", err)
	}
	tmp := checkpointPath + ".tmp"
	f, err := j.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("rcastore: creating checkpoint temp: %w", err)
	}
	if err := st.Spill(f); err != nil {
		f.Close()
		j.fs.Remove(tmp)
		return fmt.Errorf("rcastore: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		j.fs.Remove(tmp)
		return fmt.Errorf("rcastore: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		j.fs.Remove(tmp)
		return fmt.Errorf("rcastore: closing checkpoint: %w", err)
	}
	if err := j.fs.Rename(tmp, checkpointPath); err != nil {
		j.fs.Remove(tmp)
		return fmt.Errorf("rcastore: publishing checkpoint: %w", err)
	}
	// The checkpoint is durable and published; the journaled history it
	// covers can go.
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("rcastore: truncating journal after checkpoint: %w", err)
	}
	j.inSegment = false
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("rcastore: syncing truncated journal: %w", err)
	}
	j.checkpoints.Add(1)
	return nil
}

// RecoveryStats reports what Recover found on disk.
type RecoveryStats struct {
	// CheckpointRows is the number of rows loaded from the checkpoint
	// (0 when no checkpoint file existed).
	CheckpointRows int
	// Replayed is the number of journal records inserted into the
	// store.
	Replayed int
	// Deduped is the number of journal records skipped because their
	// session was already present — the checkpoint-rename/journal-
	// truncate crash window.
	Deduped int
	// TornTail reports whether the journal ended in a torn (partially
	// written) record, which was discarded and truncated away.
	TornTail bool
	// TornBytes is the size of the discarded torn tail.
	TornBytes int64
}

// Recover rebuilds a store from its checkpoint and journal, repairing
// a torn journal tail, and returns the store plus a journal reopened
// for appending. Either file may be absent (a fresh deployment, or a
// crash before the first checkpoint). The recovered store is
// byte-identical, under Spill, to the store a graceful shutdown would
// have spilled — provided every insert was journaled and synced.
func Recover(checkpointPath, journalPath string, opts Options, jopts JournalOptions) (*Store, *Journal, RecoveryStats, error) {
	jopts = jopts.defaults()
	fs := jopts.FS
	var stats RecoveryStats

	st, err := loadCheckpoint(fs, checkpointPath, opts)
	if err != nil {
		return nil, nil, stats, err
	}
	stats.CheckpointRows = st.Len()

	goodOffset, err := replayJournal(fs, journalPath, st, &stats)
	if err != nil {
		return nil, nil, stats, err
	}

	j, err := OpenJournal(journalPath, jopts)
	if err != nil {
		return nil, nil, stats, err
	}
	if stats.TornTail {
		// Drop the torn frame so the next append starts a clean one.
		if err := j.f.Truncate(goodOffset); err != nil {
			j.Close()
			return nil, nil, stats, fmt.Errorf("rcastore: truncating torn journal tail: %w", err)
		}
	}
	return st, j, stats, nil
}

// loadCheckpoint loads the checkpoint spill, returning an empty store
// when the file does not exist.
func loadCheckpoint(fs FS, path string, opts Options) (*Store, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return New(opts), nil
		}
		return nil, fmt.Errorf("rcastore: opening checkpoint: %w", err)
	}
	defer f.Close()
	st, err := Load(f, opts)
	if err != nil {
		return nil, fmt.Errorf("rcastore: loading checkpoint %s: %w", path, err)
	}
	return st, nil
}

// replayJournal replays journalPath into st, skipping rows whose
// session is already stored, and returns the offset of the end of the
// last whole frame. Only the tail may be torn: a file that ends inside
// a frame, bytes that start no frame, or a bad checksum on the very
// last frame set stats.TornTail. A bad checksum with anything after it,
// or a checksummed frame that makes no sense, is corruption and fails
// recovery.
func replayJournal(fs FS, path string, st *Store, stats *RecoveryStats) (int64, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("rcastore: opening journal: %w", err)
	}
	defer f.Close()
	fr := newFrameReader(f)
	if err := fr.legacy(); err != nil {
		return 0, err
	}
	d := decoder{st: st, seen: st.sessionSet(), stats: stats}
	for {
		at := fr.off
		kind, p, err := fr.next()
		switch {
		case err == nil:
			err = d.frame(kind, p)
		case err == io.EOF:
			return at, nil
		case errors.Is(err, errChecksum):
			if _, last := fr.r.Peek(1); last == nil {
				break // something follows the bad frame: not a torn write
			}
			fallthrough
		case errors.Is(err, errTorn):
			rest, err := io.Copy(io.Discard, fr.r)
			if err != nil {
				return 0, fmt.Errorf("rcastore: reading journal: %w", err)
			}
			stats.TornTail, stats.TornBytes = true, fr.pos-at+rest
			return at, nil
		default:
			return 0, fmt.Errorf("rcastore: reading journal: %w", err)
		}
		if err != nil {
			return 0, fmt.Errorf("rcastore: journal frame at offset %d corrupt: %w", at, err)
		}
	}
}

// sessionSet returns the set of session IDs currently retained —
// recovery's dedup index.
func (s *Store) sessionSet() map[string]struct{} {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := make(map[string]struct{})
	for _, b := range s.blocks {
		for i := 0; i < b.n; i++ {
			set[b.sessions[i]] = struct{}{}
		}
	}
	return set
}
