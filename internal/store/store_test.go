package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{
		key("a"): []byte(`{"predictor":"stems","covered":42}`),
		key("b"): {},
		key("c"): bytes.Repeat([]byte{0xAB}, 1<<16),
	}
	for k, v := range payloads {
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put(%s): %v", k[:8], err)
		}
	}
	for k, want := range payloads {
		got, ok := s.Get(k)
		if !ok {
			t.Fatalf("Get(%s): miss", k[:8])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%s): %d bytes, want %d", k[:8], len(got), len(want))
		}
	}
	if _, ok := s.Get(key("nope")); ok {
		t.Fatal("Get of unknown key hit")
	}
	st := s.Stats()
	if st.Entries != 3 || st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 entries / 3 hits / 1 miss", st)
	}
	var want int64
	for _, v := range payloads {
		want += int64(len(v))
	}
	if st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestFanoutLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	k := key("layout")
	if err := s.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, k[:2], k[2:4], k)
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("entry not at fanout path %s: %v", want, err)
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s, err := Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	bads := []string{"", "short", strings.Repeat("z", 64), strings.Repeat("A", 64), "../../../../etc/passwd"}
	for _, bad := range bads {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted an invalid key", bad)
		}
	}
	if got := s.Stats().PutErrors; got != uint64(len(bads)) {
		t.Fatalf("PutErrors = %d, want %d", got, len(bads))
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"covered":7}`)
	if err := s.Put(key("persist"), want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != 1 {
		t.Fatalf("reopened Len = %d, want 1", got)
	}
	got, ok := s2.Get(key("persist"))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("reopened Get = %q, %v; want %q, true", got, ok, want)
	}
}

func TestReopenRecencyFromMtime(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	old, mid, recent := key("old"), key("mid"), key("recent")
	for i, k := range []string{old, mid, recent} {
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		// Filesystem mtime granularity can be coarse; set them explicitly.
		mt := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, k[:2], k[2:4], k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Reopen with a bound of 2: the oldest-by-mtime entry must go.
	s2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(old); ok {
		t.Fatal("oldest entry survived a reopen beyond the bound")
	}
	for _, k := range []string{mid, recent} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("recent entry %s evicted instead of the oldest", k[:8])
		}
	}
	if ev := s2.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := key("a"), key("b"), key("c")
	s.Put(a, []byte("a"))
	s.Put(b, []byte("b"))
	if _, ok := s.Get(a); !ok { // bump a: b is now LRU
		t.Fatal("a missing")
	}
	s.Put(c, []byte("c")) // evicts b
	if _, ok := s.Get(b); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, k := range []string{a, c} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("entry %s wrongly evicted", k[:8])
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

// TestCrashBetweenTmpAndRename simulates a daemon killed mid-write: the
// temp file exists, the rename never happened. Open must sweep it and
// serve a miss, not a torn entry.
func TestCrashBetweenTmpAndRename(t *testing.T) {
	dir := t.TempDir()
	k := key("torn")
	fan := filepath.Join(dir, k[:2], k[2:4])
	if err := os.MkdirAll(fan, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(fan, k+".123456.tmp")
	if err := os.WriteFile(tmp, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover tmp file not swept on open")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d after sweeping a tmp-only dir, want 0", got)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("torn write served as an entry")
	}
}

// TestCorruptEntryDropped flips payload bytes and truncates entries on
// disk; Get must detect both via the header/CRC and drop the file.
func TestCorruptEntryDropped(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"bit-flip": func(raw []byte) []byte { raw[len(raw)-1] ^= 0xFF; return raw },
		"truncate": func(raw []byte) []byte { return raw[:len(raw)-3] },
		"emptied":  func(raw []byte) []byte { return nil },
		"bad-magic": func(raw []byte) []byte {
			copy(raw[:4], "XXXX")
			return raw
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 16)
			if err != nil {
				t.Fatal(err)
			}
			k := key("corrupt-" + name)
			if err := s.Put(k, []byte(`{"result":"important"}`)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, k[:2], k[2:4], k)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(k); ok {
				t.Fatal("corrupt entry served")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not deleted")
			}
			st := s.Stats()
			if st.CorruptDropped != 1 {
				t.Fatalf("CorruptDropped = %d, want 1", st.CorruptDropped)
			}
			// A subsequent Put must restore the key.
			if err := s.Put(k, []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); !ok || string(got) != "fresh" {
				t.Fatalf("re-Put after corruption: %q, %v", got, ok)
			}
		})
	}
}

func TestPutExistingRefreshesOnly(t *testing.T) {
	s, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := key("a"), key("b"), key("c")
	s.Put(a, []byte("a"))
	s.Put(b, []byte("b"))
	s.Put(a, []byte("a")) // refresh: a becomes MRU, b is LRU
	s.Put(c, []byte("c"))
	if _, ok := s.Get(b); ok {
		t.Fatal("b should have been the eviction victim after a's refresh")
	}
	if _, ok := s.Get(a); !ok {
		t.Fatal("refreshed entry a evicted")
	}
}

func TestClosed(t *testing.T) {
	s, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	k := key("x")
	s.Put(k, []byte("x"))
	s.Close()
	if err := s.Put(key("y"), []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: err = %v, want ErrClosed", err)
	}
	if got := s.Stats().PutErrors; got != 1 {
		t.Fatalf("PutErrors = %d, want 1 (the Put after Close)", got)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("Get after Close hit")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				k := key(fmt.Sprintf("g%d-i%d", g, i%10))
				if err := s.Put(k, []byte(k)); err != nil {
					done <- err
					return
				}
				if data, ok := s.Get(k); ok && string(data) != k {
					done <- fmt.Errorf("got %q want %q", data, k)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
