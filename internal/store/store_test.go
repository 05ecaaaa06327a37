package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixture reads one of the repo's committed profile-set wire fixtures.
func fixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	return data
}

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// TestRoundTripFixtures stores the committed wire fixtures and asserts
// the store hands back byte-identical content — the property every
// served detect report depends on.
func TestRoundTripFixtures(t *testing.T) {
	s := open(t)
	for _, tc := range []struct {
		name string
		np   int
	}{{"cg.4.json", 4}, {"cg.8.json", 8}} {
		data := fixture(t, tc.name)
		k, err := s.Put("cg", tc.np, data)
		if err != nil {
			t.Fatalf("Put %s: %v", tc.name, err)
		}
		if k.App != "cg" || k.NP != tc.np || k.Hash != HashOf(data) {
			t.Fatalf("Put %s returned key %v", tc.name, k)
		}
		got, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get %s: %v", tc.name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: stored bytes differ from fixture (%d vs %d bytes)", tc.name, len(got), len(data))
		}
		// Idempotent re-put returns the same address.
		k2, err := s.Put("cg", tc.np, data)
		if err != nil {
			t.Fatalf("re-Put %s: %v", tc.name, err)
		}
		if k2 != k {
			t.Fatalf("re-Put %s: key changed %v -> %v", tc.name, k, k2)
		}
	}
	entries, err := s.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(entries) != 2 || entries[0].NP != 4 || entries[1].NP != 8 {
		t.Fatalf("List = %+v", entries)
	}
}

func TestGetVerifiesContentHash(t *testing.T) {
	s := open(t)
	k, err := s.Put("cg", 4, []byte(`{"app":"cg"}`))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored file behind the store's back.
	if err := os.WriteFile(s.pathFor(k), []byte(`{"app":"evil"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k); err == nil {
		t.Fatal("Get returned corrupted bytes without error")
	}
}

func TestPutValidation(t *testing.T) {
	s := open(t)
	if _, err := s.Put("../evil", 4, []byte("x")); err == nil {
		t.Fatal("Put accepted a traversing app name")
	}
	if _, err := s.Put(".hidden", 4, []byte("x")); err == nil {
		t.Fatal("Put accepted a dot-leading app name")
	}
	if _, err := s.Put("cg", 0, []byte("x")); err == nil {
		t.Fatal("Put accepted scale 0")
	}
	if _, err := s.Put("cg", 4, nil); err == nil {
		t.Fatal("Put accepted empty bytes")
	}
	if _, err := s.Put("synth-0001-stencil-imbalance", 4, []byte("x")); err != nil {
		t.Fatalf("Put rejected a legal synth case name: %v", err)
	}
}

func TestOnlyAndResolve(t *testing.T) {
	s := open(t)
	if _, err := s.Only("cg", 4); err == nil {
		t.Fatal("Only succeeded on an empty store")
	}
	a, _ := s.Put("cg", 4, []byte("payload-a"))
	if e, err := s.Only("cg", 4); err != nil || e.Key != a {
		t.Fatalf("Only = %v, %v", e, err)
	}
	b, _ := s.Put("cg", 4, []byte("payload-b"))
	if _, err := s.Only("cg", 4); err == nil {
		t.Fatal("Only did not reject an ambiguous (app, np)")
	}
	if e, err := s.Resolve("cg", a.Hash[:12]); err != nil || e.Key != a {
		t.Fatalf("Resolve(a) = %v, %v", e, err)
	}
	if e, err := s.Resolve("cg", b.Hash); err != nil || e.Key != b {
		t.Fatalf("Resolve(full b) = %v, %v", e, err)
	}
	if _, err := s.Resolve("cg", "zz"); err == nil {
		t.Fatal("Resolve accepted a non-hex prefix")
	}
	if a.Hash[0] == b.Hash[0] {
		if _, err := s.Resolve("cg", a.Hash[:1]); err == nil {
			t.Fatal("Resolve did not reject an ambiguous prefix")
		}
	}
}

// TestConcurrentPutGet hammers one store from many goroutines — run
// under -race in CI. Writers repeatedly store both distinct and
// identical payloads while readers Get and List; every read must see
// complete, hash-consistent bytes.
func TestConcurrentPutGet(t *testing.T) {
	s := open(t)
	const writers, readers, rounds = 8, 8, 20

	payload := func(w, r int) []byte {
		return []byte(fmt.Sprintf(`{"app":"app%d","np":4,"round":%d,"pad":"%064d"}`, w%4, r%5, w*r))
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				data := payload(w, r)
				k, err := s.Put(fmt.Sprintf("app%d", w%4), 4, data)
				if err != nil {
					errs <- err
					return
				}
				got, err := s.Get(k)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("writer %d round %d: bytes differ", w, r)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				entries, err := s.List()
				if err != nil {
					errs <- err
					return
				}
				for _, e := range entries {
					data, err := s.Get(e.Key)
					if err != nil {
						errs <- err
						return
					}
					if HashOf(data) != e.Hash {
						errs <- fmt.Errorf("entry %v: bytes do not hash to address", e.Key)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every distinct payload is present exactly once per (app, np, hash).
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Key]bool{}
	for _, e := range entries {
		if seen[e.Key] {
			t.Fatalf("duplicate listing for %v", e.Key)
		}
		seen[e.Key] = true
	}
}

func TestListDeterministicOrder(t *testing.T) {
	s := open(t)
	// Insert out of order across apps and scales.
	s.Put("zeta", 8, []byte("z8"))
	s.Put("alpha", 16, []byte("a16"))
	s.Put("alpha", 4, []byte("a4"))
	s.Put("alpha", 4, []byte("a4-second"))
	s.Put("zeta", 2, []byte("z2"))
	first, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("List order is not stable")
	}
	var order []string
	for _, e := range first {
		order = append(order, fmt.Sprintf("%s/%d", e.App, e.NP))
	}
	want := []string{"alpha/4", "alpha/4", "alpha/16", "zeta/2", "zeta/8"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("List order = %v, want %v", order, want)
	}
	// The two alpha/4 entries come back hash-sorted.
	if first[0].Hash > first[1].Hash {
		t.Fatal("entries for one (app, np) are not hash-sorted")
	}
}

// TestHistoryUploadOrder pins the ordering contract the rolling
// baseline depends on: History returns entries in upload order (the
// per-scale history.log), not hash order, and an idempotent re-Put
// never duplicates a log line.
func TestHistoryUploadOrder(t *testing.T) {
	s := open(t)
	payloads := [][]byte{[]byte("run-one"), []byte("run-two"), []byte("run-three")}
	var keys []Key
	for _, p := range payloads {
		k, err := s.Put("cg", 8, p)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// Re-Put the first payload: content-addressed, must not re-log.
	if _, err := s.Put("cg", 8, payloads[0]); err != nil {
		t.Fatal(err)
	}
	hist, err := s.History("cg", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != len(keys) {
		t.Fatalf("History returned %d entries for %d uploads", len(hist), len(keys))
	}
	for i, e := range hist {
		if e.Key != keys[i] {
			t.Fatalf("History[%d] = %v, want upload #%d %v", i, e.Key, i, keys[i])
		}
	}
	// The contract is non-trivial only if upload order differs from the
	// hash order ListApp uses; these payloads were picked to differ.
	listed, err := s.ListApp("cg")
	if err != nil {
		t.Fatal(err)
	}
	sameOrder := true
	for i := range listed {
		if listed[i].Key != hist[i].Key {
			sameOrder = false
		}
	}
	if sameOrder {
		t.Fatal("test payloads hash in upload order; pick payloads whose hash order differs")
	}
	// history.log must stay invisible to the listing API.
	for _, e := range listed {
		if e.Hash == historyName {
			t.Fatal("history.log leaked into ListApp")
		}
	}
}

// TestHistoryLegacyUnlogged: stores written before the history log
// existed still produce a deterministic order — logged entries first in
// upload order, unlogged ones appended hash-ascending.
func TestHistoryLegacyUnlogged(t *testing.T) {
	s := open(t)
	a, _ := s.Put("cg", 4, []byte("logged-a"))
	b, _ := s.Put("cg", 4, []byte("logged-b"))
	// Rewrite the log so only the second upload is logged, as if the
	// first landed under an older store version.
	if err := os.WriteFile(s.historyPath("cg", 4), []byte(b.Hash+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	hist, err := s.History("cg", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[0].Key != b || hist[1].Key != a {
		t.Fatalf("History = %+v, want logged %v then legacy %v", hist, b, a)
	}
	// Removing the log entirely degrades to hash-ascending order.
	if err := os.Remove(s.historyPath("cg", 4)); err != nil {
		t.Fatal(err)
	}
	hist, err = s.History("cg", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[0].Hash > hist[1].Hash {
		t.Fatalf("logless History not hash-ascending: %+v", hist)
	}
}

// TestPutRetryAfterFailedHistoryAppend: a Put whose history append fails
// must store nothing, so the retry lands and logs the run at its upload
// position. Left on disk, the set would be adopted later as an unlogged
// legacy set — after every logged run, whatever the upload order.
func TestPutRetryAfterFailedHistoryAppend(t *testing.T) {
	s := open(t)
	payA, payB, payC := []byte("run-a"), []byte("run-b"), []byte("run-c")
	if HashOf(payB) >= HashOf(payA) {
		t.Fatal("pick payloads with HashOf(B) < HashOf(A), so hash order cannot pass for upload order")
	}
	a, err := s.Put("cg", 8, payA)
	if err != nil {
		t.Fatal(err)
	}
	// Make the append fail: the log's name now belongs to a directory.
	log, saved := s.historyPath("cg", 8), s.historyPath("cg", 8)+".saved"
	if err := os.Rename(log, saved); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(log, 0o755); err != nil {
		t.Fatal(err)
	}
	b := Key{App: "cg", NP: 8, Hash: HashOf(payB)}
	if _, err := s.Put("cg", 8, payB); err == nil {
		t.Fatal("Put succeeded with an unwritable history log")
	}
	if _, err := os.Stat(s.pathFor(b)); !os.IsNotExist(err) {
		t.Fatalf("failed Put left %s behind (stat: %v)", s.pathFor(b), err)
	}
	if err := os.Remove(log); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(saved, log); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("cg", 8, payB); err != nil {
		t.Fatal(err)
	}
	c, err := s.Put("cg", 8, payC)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := s.History("cg", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 || hist[0].Key != a || hist[1].Key != b || hist[2].Key != c {
		t.Fatalf("History = %+v, want upload order %v, %v, %v", hist, a, b, c)
	}
}

// TestHistoryCorruptLog: a logged hash with no stored set is store
// corruption, reported via the ErrCorrupt sentinel (a 500, not a 4xx,
// at the serve layer).
func TestHistoryCorruptLog(t *testing.T) {
	s := open(t)
	k, _ := s.Put("cg", 4, []byte("present"))
	ghost := HashOf([]byte("never stored"))
	line := k.Hash + "\n" + ghost + "\n"
	if err := os.WriteFile(s.historyPath("cg", 4), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := s.History("cg", 4)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("History over a log naming a missing set: err = %v, want ErrCorrupt", err)
	}
	// Junk lines (bad hashes, blanks) are skipped, not errors.
	if err := os.WriteFile(s.historyPath("cg", 4), []byte("not-a-hash\n\n"+k.Hash+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	hist, err := s.History("cg", 4)
	if err != nil || len(hist) != 1 || hist[0].Key != k {
		t.Fatalf("History with junk lines = %+v, %v", hist, err)
	}
}

// TestErrorSentinels pins the error-classification contract the serve
// layer maps to HTTP statuses: every store error wraps exactly one of
// os.ErrInvalid (client error), os.ErrNotExist, ErrAmbiguous, or
// ErrCorrupt.
func TestErrorSentinels(t *testing.T) {
	s := open(t)
	a, _ := s.Put("cg", 4, []byte("payload-a"))
	b, _ := s.Put("cg", 4, []byte("payload-b"))

	if _, err := s.Get(Key{App: "../evil", NP: 4, Hash: a.Hash}); !errors.Is(err, os.ErrInvalid) {
		t.Fatalf("Get(bad app): %v, want os.ErrInvalid", err)
	}
	missing := Key{App: "cg", NP: 4, Hash: HashOf([]byte("missing"))}
	if _, err := s.Get(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Get(missing): %v, want os.ErrNotExist", err)
	}
	if _, err := s.History("../evil", 4); !errors.Is(err, os.ErrInvalid) {
		t.Fatalf("History(bad app): %v, want os.ErrInvalid", err)
	}
	if _, err := s.History("cg", 0); !errors.Is(err, os.ErrInvalid) {
		t.Fatalf("History(np=0): %v, want os.ErrInvalid", err)
	}
	if _, err := s.Resolve("cg", "zz"); !errors.Is(err, os.ErrInvalid) {
		t.Fatalf("Resolve(non-hex): %v, want os.ErrInvalid", err)
	}
	if a.Hash[0] == b.Hash[0] {
		if _, err := s.Resolve("cg", a.Hash[:1]); !errors.Is(err, ErrAmbiguous) {
			t.Fatalf("Resolve(ambiguous): %v, want ErrAmbiguous", err)
		}
	}
	if _, err := s.Only("cg", 4); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("Only(two sets): %v, want ErrAmbiguous", err)
	}
	if err := os.WriteFile(s.pathFor(a), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(a); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(tampered): %v, want ErrCorrupt", err)
	}
}

// TestReadIsGet: Read answers Get's bytes and error word for word, over
// a sound set, a tampered one, a missing one, a directory and an invalid
// key, and over 200 seeded random mutations of a real cg set its bytes are
// the whole file exactly when they hash to the key; any other file is
// ErrCorrupt.
func TestReadIsGet(t *testing.T) {
	s := open(t)
	cg := fixture(t, "cg.8.json")
	k, err := s.Put("cg", 8, cg)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := s.Put("cg", 4, []byte("payload-b"))
	if err := os.WriteFile(s.pathFor(bad), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir, _ := s.Put("cg", 16, []byte("payload-c"))
	if err := os.Remove(s.pathFor(dir)); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(s.pathFor(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	missing := Key{App: "cg", NP: 4, Hash: HashOf([]byte("missing"))}
	invalid := Key{App: "../evil", NP: 4, Hash: k.Hash}
	for _, k := range []Key{k, bad, dir, missing, invalid} {
		got, getErr := s.Get(k)
		read, _, readErr := s.Read(k)
		if !bytes.Equal(got, read) || fmt.Sprint(getErr) != fmt.Sprint(readErr) {
			t.Errorf("%s: Get says %d bytes, %v; Read %d bytes, %v", k, len(got), getErr, len(read), readErr)
		}
	}
	if _, _, err := s.Read(dir); err == nil || !strings.Contains(err.Error(), "is a directory") {
		t.Errorf("Read(a directory) = %v, want the read's error", err)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := bytes.Clone(cg)
		at := rng.Intn(len(data))
		switch rng.Intn(5) {
		case 0:
			data[at] ^= byte(1 + rng.Intn(255))
		case 1:
			data = data[:at]
		case 2:
			data = append(data, make([]byte, 1+rng.Intn(70000))...)
		case 3:
			data = append(data[:at], data[at+1:]...)
		}
		if err := os.WriteFile(s.pathFor(k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Read(k)
		switch {
		case bytes.Equal(data, cg) && (err != nil || !bytes.Equal(got, cg)):
			t.Errorf("mutation %d left the set sound, yet Read = %d bytes, %v", i, len(got), err)
		case !bytes.Equal(data, cg) && !errors.Is(err, ErrCorrupt):
			t.Errorf("mutation %d: Read of %d bytes = %v, want ErrCorrupt", i, len(data), err)
		}
	}
}

// cleanStamp reads k until the stamp Read returns is clean, within a
// bound: a stamp is racy while the file's mtime or ctime is within the
// window of the read.
func cleanStamp(t *testing.T, s *Store, k Key) Stamp {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		_, st, err := s.Read(k)
		if err != nil {
			t.Fatal(err)
		}
		if st.clean() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: no clean stamp within 10 s: %+v", k, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStampIsCleanPastTheWindow: a stamp is clean once both its mtime and
// its ctime are older than its read by more than the window, 20 ms, or 2 s
// when either has no sub-second part; a stamp with no identity never is.
func TestStampIsCleanPastTheWindow(t *testing.T) {
	const at = int64(1_700_000_000_123_456_789)
	id := fileID{dev: 1, ino: 2, size: 3, mtime: at, ctime: at}
	coarse := id
	coarse.mtime = at - at%1e9
	for _, tc := range []struct {
		name string
		st   Stamp
		want bool
	}{
		{"read at the mtime", Stamp{id: id, read: at}, false},
		{"read one window on", Stamp{id: id, read: at + int64(racyWindow)}, false},
		{"read past the window", Stamp{id: id, read: at + int64(racyWindow) + 1}, true},
		{"a ctime within the window", Stamp{id: fileID{dev: 1, ino: 2, mtime: at - 1e9, ctime: at}, read: at + 1}, false},
		{"a whole-second mtime past the short window", Stamp{id: coarse, read: at + int64(time.Second)}, false},
		{"a whole-second mtime past the long window", Stamp{id: coarse, read: at + int64(coarseWindow) + 1}, true},
		{"no identity", Stamp{read: at}, false},
		{"zero", Stamp{}, false},
	} {
		if got := tc.st.clean(); got != tc.want {
			t.Errorf("%s: clean = %t, want %t", tc.name, got, tc.want)
		}
	}
}

// TestUnchangedSeesEveryChange: a stamp fresh off a Put is racy, so
// Unchanged says no; once a read's stamp is clean it says yes until the
// file is rewritten in place (its mtime restored or not), renamed over,
// cut short, grown, removed or replaced by a directory. A stamp from
// another key's read is not this file's.
func TestUnchangedSeesEveryChange(t *testing.T) {
	s := open(t)
	cg := fixture(t, "cg.8.json")
	k, err := s.Put("cg", 8, cg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Put("cg", 4, fixture(t, "cg.4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := s.Read(k); err != nil || s.Unchanged(k, st) {
		t.Fatalf("a stamp read just after the Put: Unchanged = %t (err %v), want racy", s.Unchanged(k, st), err)
	}
	path := s.pathFor(k)
	write := func(data []byte) func() error {
		return func() error { return os.WriteFile(path, data, 0o644) }
	}
	flipped := bytes.Clone(cg)
	flipped[len(flipped)/2] ^= 1
	for _, tc := range []struct {
		name   string
		change func() error
	}{
		{"rewritten in place", write(flipped)},
		{"rewritten with its mtime restored", func() error {
			info, err := os.Stat(path)
			if err == nil {
				err = os.WriteFile(path, flipped, 0o644)
			}
			if err == nil {
				err = os.Chtimes(path, info.ModTime(), info.ModTime())
			}
			return err
		}},
		{"renamed over", func() error {
			tmp := path + ".new"
			if err := os.WriteFile(tmp, cg, 0o644); err != nil {
				return err
			}
			return os.Rename(tmp, path)
		}},
		{"one byte short", write(cg[:len(cg)-1])},
		{"one byte long", write(append(bytes.Clone(cg), ' '))},
		{"removed", func() error { return os.Remove(path) }},
		{"a directory", func() error {
			if err := os.Remove(path); err != nil {
				return err
			}
			return os.Mkdir(path, 0o755)
		}},
	} {
		st := cleanStamp(t, s, k)
		if !s.Unchanged(k, st) {
			t.Fatalf("before %s: a clean stamp of an untouched file is not Unchanged", tc.name)
		}
		if s.Unchanged(other, st) {
			t.Errorf("before %s: another set's file has this set's stamp", tc.name)
		}
		if err := tc.change(); err != nil {
			t.Fatal(err)
		}
		if s.Unchanged(k, st) {
			t.Errorf("%s: Unchanged = true", tc.name)
		}
		os.Remove(path)
		if err := os.WriteFile(path, cg, 0o644); err != nil {
			t.Fatal(err)
		}
		if s.Unchanged(k, st) {
			t.Errorf("%s, then put back: Unchanged = true", tc.name)
		}
	}
}

// TestHistoryEmptyScale: a scale directory holding no stored set has no
// history — not even a corrupt one — whatever was left behind in it.
func TestHistoryEmptyScale(t *testing.T) {
	s := open(t)
	k, _ := s.Put("cg", 4, []byte("only"))
	if err := os.Remove(s.pathFor(k)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.dirFor("cg", 4), ".put-123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if hist, err := s.History("cg", 4); err != nil || len(hist) != 0 {
		t.Fatalf("History of a scale holding only history.log and a temp file = %+v, %v", hist, err)
	}
	if hist, err := s.History("cg", 32); err != nil || len(hist) != 0 {
		t.Fatalf("History of a scale with no directory = %+v, %v", hist, err)
	}
}

// TestScalesAndCount: Scales names the directories dirFor writes (and no
// other spelling of a number), Count the sets under them, both without
// lstat-ing a file.
func TestScalesAndCount(t *testing.T) {
	s := open(t)
	s.Put("cg", 16, []byte("a16"))
	s.Put("cg", 4, []byte("a4"))
	s.Put("cg", 4, []byte("a4-second"))
	s.Put("zeusmp", 8, []byte("z8"))
	for _, dir := range []string{"08", "0", "-2", "x"} {
		if err := os.MkdirAll(filepath.Join(s.Root(), "cg", dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(s.Root(), "cg", "32"), []byte("a file, not a scale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if nps, err := s.Scales("cg"); err != nil || !reflect.DeepEqual(nps, []int{4, 16}) {
		t.Fatalf("Scales(cg) = %v, %v, want [4 16]", nps, err)
	}
	if nps, err := s.Scales("nope"); err != nil || len(nps) != 0 {
		t.Fatalf("Scales(unknown app) = %v, %v", nps, err)
	}
	if _, err := s.Scales("../evil"); !errors.Is(err, os.ErrInvalid) {
		t.Fatalf("Scales(bad app): %v, want os.ErrInvalid", err)
	}
	listed, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Count(); err != nil || n != 4 || n != len(listed) {
		t.Fatalf("Count = %d, %v, want 4 = len(List) (%d)", n, err, len(listed))
	}
	for _, e := range listed {
		if e.Size == 0 {
			t.Fatalf("List left %v without its size", e.Key)
		}
	}
}

// putRuns stores n distinct sets under (app, np).
func putRuns(t testing.TB, s *Store, app string, np, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Put(app, np, []byte(fmt.Sprintf("%s/%d run %d", app, np, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadCostIgnoresSiblingScales: what a read of one scale costs does
// not depend on what the app's other scales hold. Allocations stand in
// for directory entries touched — every entry read or lstat-ed
// allocates — so equal counts with 0 and with 200 sets next door mean
// the sibling was never walked, and the ceiling keeps the per-entry cost
// where it is: about two allocations an entry (dirent and name) plus a
// fixed dozen.
func TestReadCostIgnoresSiblingScales(t *testing.T) {
	s := open(t)
	putRuns(t, s, "cg", 8, 64)
	history := func() {
		if hist, err := s.History("cg", 8); err != nil || len(hist) != 64 {
			t.Fatalf("History = %d entries, %v", len(hist), err)
		}
	}
	alone := testing.AllocsPerRun(20, history)
	t.Logf("History over 64 entries: %v allocations", alone)
	putRuns(t, s, "cg", 16, 200)
	if crowded := testing.AllocsPerRun(20, history); crowded != alone {
		t.Errorf("History(cg, 8) allocates %v with an empty sibling scale and %v beside 200 sets", alone, crowded)
	}
	const ceiling = 200
	if alone > ceiling {
		t.Errorf("History over 64 entries allocates %v, ceiling %d", alone, ceiling)
	}

	// A sibling whose log names a set that is gone is that scale's
	// corruption, and only that scale's.
	if err := os.WriteFile(s.historyPath("cg", 16), []byte(HashOf([]byte("never stored"))+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.History("cg", 16); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("History(cg, 16) over a log naming a missing set: %v, want ErrCorrupt", err)
	}
	history()
	one, _ := s.Put("cg", 4, []byte("the only np=4 run"))
	if e, err := s.Only("cg", 4); err != nil || e.Key != one || e.Size != int64(len("the only np=4 run")) {
		t.Fatalf("Only(cg, 4) beside a corrupt sibling = %+v, %v", e, err)
	}
}

// TestHistoryConcurrentWithPut — run under -race in CI — uploads distinct
// sets while another goroutine reads the history. A read must never fall
// between a set landing and its log line (a logged hash missing from a
// stale listing is a spurious ErrCorrupt, a 500 from /v1/watch), and
// every order read must extend the one read before it.
func TestHistoryConcurrentWithPut(t *testing.T) {
	s := open(t)
	const puts = 500
	stop, done := make(chan struct{}), make(chan struct{})
	var putErr error
	go func() {
		defer close(done)
		for i := 0; i < puts && putErr == nil; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, putErr = s.Put("cg", 8, []byte(fmt.Sprintf("run %d", i)))
		}
	}()
	// read takes one history and checks it extends the one before it.
	var prev []Entry
	read := func() error {
		hist, err := s.History("cg", 8)
		if err != nil {
			return err
		}
		if len(hist) < len(prev) {
			return fmt.Errorf("%d runs, after a read of %d", len(hist), len(prev))
		}
		for i, e := range prev {
			if hist[i] != e {
				return fmt.Errorf("run %d of the order read before moved", i)
			}
		}
		prev = hist
		return nil
	}
	var readErr error
	for reading := true; reading && readErr == nil; {
		select {
		case <-done:
			reading = false // one more read, of the final state
		default:
		}
		readErr = read()
	}
	close(stop)
	<-done // the writer is out of the directory before TempDir removes it
	if readErr != nil {
		t.Fatalf("History during uploads: %v", readErr)
	}
	if putErr != nil {
		t.Fatal(putErr)
	}
	if len(prev) != puts {
		t.Fatalf("final history holds %d runs, want %d", len(prev), puts)
	}
}

// TestConcurrentPutsOfOneSetLogOnce: eight Puts of the same bytes at once
// each write their own temp file outside the store mutex. One lands and
// logs the set; the others find it landed and remove theirs, so the
// history names it once and no .put-* file is left.
func TestConcurrentPutsOfOneSetLogOnce(t *testing.T) {
	s := open(t)
	data := []byte(`{"app":"cg","np":8,"run":1}`)
	want := Key{App: "cg", NP: 8, Hash: HashOf(data)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if k, err := s.Put("cg", 8, data); err != nil || k != want {
				t.Errorf("Put = %v, %v; want %v", k, err, want)
			}
		}()
	}
	wg.Wait()
	raw, err := os.ReadFile(s.historyPath("cg", 8))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != want.Hash+"\n" {
		t.Errorf("history.log = %q, want the hash once", raw)
	}
	files, err := os.ReadDir(s.dirFor("cg", 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasPrefix(f.Name(), ".put-") {
			t.Errorf("a Put left its temp file %s", f.Name())
		}
	}
}
