package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// warnLog captures store warnings race-safely (the writer goroutine logs
// too under -race).
type warnLog struct {
	mu   sync.Mutex
	msgs []string
}

func (w *warnLog) logf(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.msgs = append(w.msgs, fmt.Sprintf(format, args...))
}

func (w *warnLog) contains(sub string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range w.msgs {
		if strings.Contains(m, sub) {
			return true
		}
	}
	return false
}

// testKey derives a distinct, deterministic key.
func testKey(i int) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[31] = 0xAB
	return k
}

// testResult builds a payload whose identity survives a JSON round trip.
func testResult(i int) Result {
	return Result{Stats: &sim.Stats{Total: uint64(1000 + i), Loads: uint64(i)}}
}

func openTestStore(t *testing.T, dir string, opts StoreOptions) (*Store, *warnLog) {
	t.Helper()
	w := &warnLog{}
	if opts.Logf == nil {
		opts.Logf = w.logf
	}
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

// segFiles lists the store's segment files.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// diskBytes sums the segment file sizes.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, name := range segFiles(t, dir) {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestStoreRoundtripAcrossRestart is the core durability contract: every
// record written before Close is served — value-identical — by a fresh
// Store over the same directory, purely from the rebuilt index.
func TestStoreRoundtripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const n = 50
	s, _ := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testResult(i))
	}
	if err := s.Close(); err != nil { // Close implies flush
		t.Fatal(err)
	}

	s2, warns := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != n {
		t.Fatalf("recovered %d keys, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		r, ok := s2.Get(testKey(i))
		if !ok {
			t.Fatalf("key %d lost across restart", i)
		}
		want, _ := json.Marshal(testResult(i))
		got, _ := json.Marshal(r)
		if string(got) != string(want) {
			t.Fatalf("key %d: recovered %s, want %s", i, got, want)
		}
	}
	if len(warns.msgs) != 0 {
		t.Fatalf("clean restart produced warnings: %v", warns.msgs)
	}
}

// TestStoreSegmentRotation checks records spread over many segments when
// they outgrow MaxSegmentBytes, and that recovery scans all of them.
func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	const n = 24
	s, _ := openTestStore(t, dir, StoreOptions{MaxSegmentBytes: 256})
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testResult(i))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(segFiles(t, dir)); got < 3 {
		t.Fatalf("rotation produced %d segments, want several", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openTestStore(t, dir, StoreOptions{MaxSegmentBytes: 256})
	defer s2.Close()
	if got := s2.Len(); got != n {
		t.Fatalf("recovered %d keys across segments, want %d", got, n)
	}
}

// TestStoreTruncatedTailKeepsValidPrefix simulates a crash mid-append: the
// torn final record is skipped with a warning and every record before it
// stays live — the node starts, it does not crash.
func TestStoreTruncatedTailKeepsValidPrefix(t *testing.T) {
	dir := t.TempDir()
	const n = 10
	s, _ := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testResult(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its trailing checksum plus a payload byte.
	if err := os.Truncate(last, fi.Size()-6); err != nil {
		t.Fatal(err)
	}

	s2, warns := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != n-1 {
		t.Fatalf("recovered %d keys from torn log, want %d (valid prefix)", got, n-1)
	}
	for i := 0; i < n-1; i++ {
		if _, ok := s2.Get(testKey(i)); !ok {
			t.Fatalf("valid-prefix key %d lost", i)
		}
	}
	if _, ok := s2.Get(testKey(n - 1)); ok {
		t.Fatal("torn record served as if intact")
	}
	if !warns.contains("truncated record") {
		t.Fatalf("no truncation warning logged: %v", warns.msgs)
	}
	// The reopened store appends to a fresh segment, so new writes are
	// recoverable even though an old segment has a torn tail.
	s2.Put(testKey(100), testResult(100))
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(testKey(100)); !ok {
		t.Fatal("write after torn-tail recovery not served")
	}
}

// TestStoreGarbageTailKeepsValidPrefix covers the two corruption shapes a
// scan distinguishes: an implausible length prefix and a checksum mismatch.
// Both stop the scan at the valid prefix with a warning.
func TestStoreGarbageTailKeepsValidPrefix(t *testing.T) {
	t.Run("implausible-length", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openTestStore(t, dir, StoreOptions{})
		for i := 0; i < 5; i++ {
			s.Put(testKey(i), testResult(i))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		last := segFiles(t, dir)[0]
		f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		garbage := make([]byte, 64)
		for i := range garbage {
			garbage[i] = 0xFF
		}
		if _, err := f.Write(garbage); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s2, warns := openTestStore(t, dir, StoreOptions{})
		defer s2.Close()
		if got := s2.Len(); got != 5 {
			t.Fatalf("recovered %d keys, want 5", got)
		}
		if !warns.contains("implausible record length") {
			t.Fatalf("no corruption warning: %v", warns.msgs)
		}
	})
	t.Run("checksum-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openTestStore(t, dir, StoreOptions{})
		for i := 0; i < 5; i++ {
			s.Put(testKey(i), testResult(i))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		last := segFiles(t, dir)[0]
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(last, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one byte inside the final record's payload.
		if _, err := f.WriteAt([]byte{0x5A}, fi.Size()-8); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s2, warns := openTestStore(t, dir, StoreOptions{})
		defer s2.Close()
		if got := s2.Len(); got != 4 {
			t.Fatalf("recovered %d keys, want 4 (corrupt final record dropped)", got)
		}
		if !warns.contains("checksum mismatch") {
			t.Fatalf("no checksum warning: %v", warns.msgs)
		}
	})
}

// TestStoreUnrecognizedSegmentSkipped: a file with no valid magic header is
// skipped whole, with a warning, without failing the open.
func TestStoreUnrecognizedSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, StoreOptions{})
	s.Put(testKey(1), testResult(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000099.log"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, warns := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Len(); got != 1 {
		t.Fatalf("recovered %d keys, want 1", got)
	}
	if !warns.contains("no valid header") {
		t.Fatalf("no header warning: %v", warns.msgs)
	}
}

// TestStoreCompactionPreservesLiveKeys builds a log with dead weight —
// duplicate records for the same keys — and checks compaction drops the
// dead bytes while preserving every live key exactly, including across a
// subsequent restart.
func TestStoreCompactionPreservesLiveKeys(t *testing.T) {
	dir := t.TempDir()
	const n = 16
	// Hand-write a segment with every record duplicated (the public Put is
	// idempotent, so duplication only arises from crashes or old logs).
	var buf []byte
	buf = append(buf, storeMagic...)
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			payload, err := json.Marshal(testResult(i))
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, encodeRecord(testKey(i), payload)...)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s, _ := openTestStore(t, dir, StoreOptions{MaxSegmentBytes: 512})
	if got := s.Len(); got != n {
		t.Fatalf("indexed %d keys from duplicated log, want %d", got, n)
	}
	before := diskBytes(t, dir)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := diskBytes(t, dir)
	if after >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before, after)
	}
	if got := s.Len(); got != n {
		t.Fatalf("compaction changed live key count: %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		r, ok := s.Get(testKey(i))
		if !ok {
			t.Fatalf("compaction lost key %d", i)
		}
		want, _ := json.Marshal(testResult(i))
		got, _ := json.Marshal(r)
		if string(got) != string(want) {
			t.Fatalf("compaction corrupted key %d: %s != %s", i, got, want)
		}
	}
	// Appends keep working after the swap, and everything survives restart.
	s.Put(testKey(200), testResult(200))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openTestStore(t, dir, StoreOptions{MaxSegmentBytes: 512})
	defer s2.Close()
	if got := s2.Len(); got != n+1 {
		t.Fatalf("post-compaction restart recovered %d keys, want %d", got, n+1)
	}
}

// TestStorePutIdempotent: re-putting a stored key writes nothing new.
func TestStorePutIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, StoreOptions{})
	s.Put(testKey(1), testResult(1))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	size1 := diskBytes(t, dir)
	for i := 0; i < 10; i++ {
		s.Put(testKey(1), testResult(1))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if size2 := diskBytes(t, dir); size2 != size1 {
		t.Fatalf("duplicate Put grew the log: %d -> %d bytes", size1, size2)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCompactionTriggersOffOpenPath: a log carrying well over the
// dead-bytes threshold compacts on the writer goroutine after open — with
// no Compact() call and no blocking of the open path — while every live key
// stays servable throughout. A log below the threshold must not trigger.
func TestBackgroundCompactionTriggersOffOpenPath(t *testing.T) {
	dir := t.TempDir()
	const n, rounds = 32, 10
	// Hand-write a segment whose records are duplicated rounds times with a
	// payload fat enough that the dead share clears compactMinDeadBytes.
	fat := Result{Err: strings.Repeat("x", 4<<10)}
	body, err := json.Marshal(fat)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = append(buf, storeMagic...)
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			buf = append(buf, encodeRecord(testKey(i), body)...)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	before := diskBytes(t, dir)

	s, _ := openTestStore(t, dir, StoreOptions{})
	// The open path queued — did not run — the pass: the store serves now.
	if got := s.Len(); got != n {
		t.Fatalf("indexed %d keys, want %d", got, n)
	}
	if r, ok := s.Get(testKey(3)); !ok || r.Err != fat.Err {
		t.Fatalf("Get(3) during pending compaction: ok=%v", ok)
	}
	// The writer goroutine runs the queued pass; Flush is the barrier that
	// proves the queue (compact op included) drained.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Compactions(); got != 1 {
		t.Fatalf("background compactions = %d, want 1", got)
	}
	if after := diskBytes(t, dir); after >= before {
		t.Fatalf("background compaction did not shrink the log: %d -> %d bytes", before, after)
	}
	for i := 0; i < n; i++ {
		if r, ok := s.Get(testKey(i)); !ok || r.Err != fat.Err {
			t.Fatalf("background compaction lost key %d (ok=%v)", i, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Below threshold: duplicates exist but dead bytes are tiny — the
	// trigger must hold its fire (the threshold exists to stop churn).
	dir2 := t.TempDir()
	small, _ := json.Marshal(testResult(1))
	var buf2 []byte
	buf2 = append(buf2, storeMagic...)
	for round := 0; round < 3; round++ {
		buf2 = append(buf2, encodeRecord(testKey(1), small)...)
	}
	if err := os.WriteFile(filepath.Join(dir2, "seg-00000001.log"), buf2, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := openTestStore(t, dir2, StoreOptions{})
	if s2.shouldCompact() {
		t.Fatal("a few KB of dead bytes must not trigger compaction")
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Compactions(); got != 0 {
		t.Fatalf("below-threshold store compacted %d times", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
