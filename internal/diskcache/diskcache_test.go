package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, dir string, maxBytes int64) (*Store, Recovered) {
	t.Helper()
	s, rec, err := Open(dir, maxBytes, SyncDirty)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatalf("stat journal: %v", err)
	}
	return st.Size()
}

func blockFiles(dir string) []string {
	ents, _ := os.ReadDir(filepath.Join(dir, blockSubdir))
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openT(t, dir, 0)
	if len(rec.Files) != 0 {
		t.Fatalf("fresh store recovered %d files", len(rec.Files))
	}
	s.PutBlock("k1", 0, []byte("clean-block"), false, 0)
	s.PutBlock("k1", 1, []byte("dirty-block"), true, 3)
	s.SetFileMeta("k1", 100, 7, 4096, 2)
	s.PutBlock("k2", 5, []byte("other"), false, 0)
	s.SetFileMeta("k2", 200, 0, 64, 0)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, rec2 := openT(t, dir, 0)
	defer s2.Close()
	if rec2.Stats.Files != 2 || rec2.Stats.Blocks != 3 || rec2.Stats.DirtyBlocks != 1 || rec2.Stats.Dropped != 0 {
		t.Fatalf("stats = %+v", rec2.Stats)
	}
	f1 := rec2.Files["k1"]
	if f1 == nil || f1.MtimeSec != 100 || f1.MtimeNsec != 7 || f1.Size != 4096 || f1.LocalChange != 2 {
		t.Fatalf("k1 meta = %+v", f1)
	}
	if b := f1.Blocks[0]; b == nil || b.Dirty || !bytes.Equal(b.Data, []byte("clean-block")) {
		t.Fatalf("k1 block 0 = %+v", f1.Blocks[0])
	}
	if b := f1.Blocks[1]; b == nil || !b.Dirty || b.Gen != 3 || !bytes.Equal(b.Data, []byte("dirty-block")) {
		t.Fatalf("k1 block 1 = %+v", f1.Blocks[1])
	}
	if b := rec2.Files["k2"].Blocks[5]; b == nil || !bytes.Equal(b.Data, []byte("other")) {
		t.Fatalf("k2 block 5 = %+v", rec2.Files["k2"].Blocks[5])
	}
}

func TestAbandonPreservesJournalState(t *testing.T) {
	// Abandon is the SIGKILL-equivalent teardown: no checkpoint, no final
	// sync — yet every dirty record already journaled must recover.
	dir := t.TempDir()
	s, _ := openT(t, dir, 0)
	s.PutBlock("k", 0, []byte("dirty-v1"), true, 1)
	s.Abandon()
	// Post-abandon mutations must no-op, not corrupt.
	s.PutBlock("k", 1, []byte("late"), true, 9)

	s2, rec := openT(t, dir, 0)
	defer s2.Close()
	if rec.Stats.DirtyBlocks != 1 {
		t.Fatalf("recovered %d dirty blocks, want 1 (stats %+v)", rec.Stats.DirtyBlocks, rec.Stats)
	}
	b := rec.Files["k"].Blocks[0]
	if b == nil || !b.Dirty || b.Gen != 1 || !bytes.Equal(b.Data, []byte("dirty-v1")) {
		t.Fatalf("block = %+v", b)
	}
	if _, late := rec.Files["k"].Blocks[1]; late {
		t.Fatal("post-abandon PutBlock leaked into the store")
	}
}

func TestTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, 0)
	s.PutBlock("k", 0, []byte("first"), true, 1)
	s.PutBlock("k", 1, []byte("second"), true, 1)
	s.Abandon()

	// Tear the last record's framing: recovery must keep everything before
	// it and count one drop.
	path := filepath.Join(dir, journalName)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, rec := openT(t, dir, 0)
	defer s2.Close()
	if rec.Stats.Blocks != 1 || rec.Stats.Dropped == 0 {
		t.Fatalf("stats = %+v, want 1 surviving block and >=1 drop", rec.Stats)
	}
	if b := rec.Files["k"].Blocks[0]; b == nil || !bytes.Equal(b.Data, []byte("first")) {
		t.Fatalf("surviving block = %+v", b)
	}
}

func TestTornBlockFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, 0)
	s.PutBlock("k", 0, []byte("good-block"), true, 1)
	s.PutBlock("k", 1, []byte("torn-block"), true, 1)
	s.Abandon()

	// Corrupt block 1's file: CRC verification must drop exactly it.
	names := blockFiles(dir)
	if len(names) != 2 {
		t.Fatalf("block files = %v", names)
	}
	for _, n := range names {
		if bytes.Contains([]byte(n), []byte(".1.")) {
			if err := os.WriteFile(filepath.Join(dir, blockSubdir, n), []byte("torn-blocX"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	s2, rec := openT(t, dir, 0)
	defer s2.Close()
	if rec.Stats.Blocks != 1 || rec.Stats.Dropped != 1 {
		t.Fatalf("stats = %+v, want 1 block kept and 1 dropped", rec.Stats)
	}
	if b := rec.Files["k"].Blocks[0]; b == nil || !bytes.Equal(b.Data, []byte("good-block")) {
		t.Fatalf("surviving block = %+v", b)
	}
	if _, bad := rec.Files["k"].Blocks[1]; bad {
		t.Fatal("torn block survived CRC verification")
	}
}

func TestCheckpointCompactsJournalAndGCsStaleGenerations(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, 0)
	for gen := uint64(1); gen <= 5; gen++ {
		s.PutBlock("k", 0, []byte(fmt.Sprintf("v%d", gen)), true, gen)
	}
	if got := blockFiles(dir); len(got) != 1 {
		t.Fatalf("stale generations not removed inline: %v", got)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if n := journalSize(t, dir); n != 0 {
		t.Fatalf("journal not truncated by checkpoint: %d bytes", n)
	}
	// Mutations after a checkpoint must land in the (fresh) journal.
	s.PutBlock("k", 1, []byte("post"), true, 1)
	if n := journalSize(t, dir); n == 0 {
		t.Fatal("post-checkpoint record missing from journal")
	}
	s.Close()

	s2, rec := openT(t, dir, 0)
	defer s2.Close()
	if b := rec.Files["k"].Blocks[0]; b == nil || !bytes.Equal(b.Data, []byte("v5")) || b.Gen != 5 {
		t.Fatalf("block 0 = %+v, want v5 gen 5", b)
	}
	if b := rec.Files["k"].Blocks[1]; b == nil || !bytes.Equal(b.Data, []byte("post")) {
		t.Fatalf("block 1 = %+v", b)
	}
}

func TestMarkCleanGenerationFence(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, 0)
	s.PutBlock("k", 0, []byte("newer"), true, 7)
	// A stale flush completion (older generation) must not clean the block.
	s.MarkClean("k", 0, 6)
	s.Abandon()
	s2, rec := openT(t, dir, 0)
	if b := rec.Files["k"].Blocks[0]; b == nil || !b.Dirty {
		t.Fatalf("stale MarkClean cleaned a newer generation: %+v", b)
	}
	s2.PutBlock("k", 0, []byte("newer"), true, 7)
	s2.MarkClean("k", 0, 7)
	s2.Abandon()
	s3, rec3 := openT(t, dir, 0)
	defer s3.Close()
	if b := rec3.Files["k"].Blocks[0]; b == nil || b.Dirty {
		t.Fatalf("matching MarkClean did not persist: %+v", b)
	}
}

func TestDropsAndBudget(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, 32)
	s.PutBlock("a", 0, []byte("0123456789abcdef"), false, 0) // 16 bytes
	s.PutBlock("a", 1, []byte("0123456789abcdef"), false, 0) // 32 bytes total
	// Over budget: the clean put must be skipped entirely.
	s.PutBlock("b", 0, []byte("0123456789abcdef"), false, 0)
	// Dirty data ignores the clean budget.
	s.PutBlock("c", 0, []byte("0123456789abcdef"), true, 1)
	if _, blocks, _ := s.Usage(); blocks != 3 {
		t.Fatalf("indexed blocks = %d, want 3 (budget must skip b/0)", blocks)
	}
	s.DropBlock("a", 0)
	s.DropFile("a")
	s.Close()

	s2, rec := openT(t, dir, 32)
	defer s2.Close()
	if _, ok := rec.Files["a"]; ok {
		t.Fatal("dropped file recovered")
	}
	if _, ok := rec.Files["b"]; ok {
		t.Fatal("over-budget clean block recovered")
	}
	if b := rec.Files["c"].Blocks[0]; b == nil || !b.Dirty {
		t.Fatalf("dirty block lost: %+v", b)
	}
}

func TestBudgetSkipDropsStaleCopy(t *testing.T) {
	// When the budget forces skipping a clean put, any previously persisted
	// copy of that block must be dropped — otherwise recovery would
	// resurrect old content under a newer file mtime.
	dir := t.TempDir()
	s, _ := openT(t, dir, 24)
	s.PutBlock("a", 0, []byte("old-content!"), false, 0) // 12 bytes
	s.PutBlock("z", 0, []byte("filler-data!"), false, 0) // 24 total
	// New content for a/0 is bigger than remaining budget allows.
	s.PutBlock("a", 0, []byte("newer-and-longer-content!"), false, 0)
	s.Close()
	s2, rec := openT(t, dir, 24)
	defer s2.Close()
	if f := rec.Files["a"]; f != nil {
		t.Fatalf("stale copy of a/0 resurrected: %+v", f.Blocks[0])
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncDirty, "dirty": SyncDirty, "always": SyncAlways, "none": SyncNone, "off": SyncNone,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Error("ParseSyncPolicy(bogus) succeeded")
	}
}

func TestManifestSurvivesGarbageJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, 0)
	s.PutBlock("k", 0, []byte("checkpointed"), true, 2)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	// Garbage journal: replay must stop at the bad record, keeping the
	// manifest state intact.
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte("not a journal record at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir, 0)
	defer s2.Close()
	if b := rec.Files["k"].Blocks[0]; b == nil || !bytes.Equal(b.Data, []byte("checkpointed")) {
		t.Fatalf("manifest state lost: %+v", rec)
	}
	if rec.Stats.Dropped == 0 {
		t.Fatal("garbage journal not counted as dropped")
	}
}
