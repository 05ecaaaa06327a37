// Package store is a content-addressed on-disk store for profile-set
// wire bytes (prof.EncodeProfileSet output). It is the persistence
// layer behind scalana-serve: uploads land here once and every later
// detect/sweep/comm query reads them back, so the store's contract is
// byte fidelity — Get returns exactly the bytes Put received, verified
// against the content hash on the way out.
//
// Layout: one file per stored set,
//
//	<root>/<app>/<np>/<sha256-hex>.json
//
// keyed by (app, scale, content hash). The hash is the address: storing
// the same bytes twice is a no-op that returns the same Key, and two
// different profile sets for one (app, np) coexist under different
// hashes (the server refuses to guess between them — queries either
// name a hash or require the pair to be unambiguous).
//
// Writes are atomic: bytes go to a temporary file in the destination
// directory and are renamed into place, so a concurrent reader sees
// either nothing or the complete file, never a partial write. The store
// is safe for concurrent use by any number of goroutines (and, because
// the rename is the commit point, by cooperating processes sharing the
// directory).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Sentinel errors, used by callers (the HTTP service in particular) to
// map store failures onto the right failure class instead of guessing
// from message text. Every error the store returns wraps exactly one of
// these or os.ErrNotExist / os.ErrInvalid:
//
//   - os.ErrInvalid: the caller's input was malformed (bad app name, bad
//     hash, non-positive scale) — a client error.
//   - os.ErrNotExist: the named content is not stored.
//   - ErrAmbiguous: the query matches more than one stored set and the
//     store refuses to guess.
//   - ErrCorrupt: stored state contradicts itself — bytes that no longer
//     match their content hash, or a history log naming a missing file.
var (
	ErrAmbiguous = errors.New("ambiguous")
	ErrCorrupt   = errors.New("store corrupt")
)

// Key addresses one stored profile set.
type Key struct {
	// App is the application name the set was stored under.
	App string `json:"app"`
	// NP is the job scale.
	NP int `json:"np"`
	// Hash is the lowercase hex SHA-256 of the stored bytes.
	Hash string `json:"hash"`
}

// String renders the key the way the HTTP API spells it.
func (k Key) String() string { return fmt.Sprintf("%s/%d/%s", k.App, k.NP, k.Hash) }

// Entry is one stored set in a listing.
type Entry struct {
	Key
	// Size is the stored byte count, filled by the calls that report it
	// (List, ListApp, Only, Resolve) at one lstat each. History
	// orders runs and stats nothing: its entries carry Size 0.
	Size int64 `json:"size"`
}

// Store is a content-addressed profile-set store rooted at one
// directory.
type Store struct {
	root string
	// mu serializes commits (a Put's existence check, rename and
	// history-log append) within this process; a Put hashes and writes its
	// temp file before taking it. Readers of stored sets need no lock —
	// rename is the commit point — but the upload-order log is append-only
	// per (app, np) and the append must pair atomically with the file
	// landing, so History takes it too and never sees one without the
	// other.
	mu sync.Mutex
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// ValidName reports whether an application name is usable as a store
// path component: ASCII letters, digits, dot, underscore, and dash, not
// starting with a dot (so names can never traverse or collide with
// temporary files).
func ValidName(app string) bool {
	if app == "" || app[0] == '.' {
		return false
	}
	for i := 0; i < len(app); i++ {
		c := app[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// badApp is the error for an app name ValidName rejects.
func badApp(app string) error {
	return fmt.Errorf("store: invalid app name %q: %w", app, os.ErrInvalid)
}

// HashOf returns the store address of a byte string: lowercase hex
// SHA-256.
func HashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func (s *Store) dirFor(app string, np int) string {
	return filepath.Join(s.root, app, strconv.Itoa(np))
}

func (s *Store) pathFor(k Key) string { return setPath(s.dirFor(k.App, k.NP), k.Hash) }

// setPath names the file holding one set inside its scale's directory.
// Plain concatenation is filepath.Join here — dir is clean and a hash is
// hex — without a Clean for every entry of a listing.
func setPath(dir, hash string) string {
	return dir + string(filepath.Separator) + hash + ".json"
}

// historyName is the per-(app, np) upload-order log: one content hash
// per line, appended when a Put first lands that content. The name is
// not a valid <hash>.json entry, so listings skip it automatically.
const historyName = "history.log"

func (s *Store) historyPath(app string, np int) string {
	return filepath.Join(s.dirFor(app, np), historyName)
}

// Put stores data under (app, np, HashOf(data)) and returns the key.
// Storing bytes that are already present stores nothing and returns the
// same key — content addressing makes the write idempotent. The write is
// atomic (temp file + rename in the destination directory), and the
// first time a given content lands its hash is appended to the (app,
// np) history log, establishing the upload order History reports. A Put
// whose log append fails stores nothing, so retrying it logs it. The
// store mutex covers only the commit — existence check, rename and log
// append — so concurrent Puts hash and write in parallel.
func (s *Store) Put(app string, np int, data []byte) (Key, error) {
	if !ValidName(app) {
		return Key{}, badApp(app)
	}
	if np < 1 {
		return Key{}, fmt.Errorf("store: invalid scale %d: %w", np, os.ErrInvalid)
	}
	if len(data) == 0 {
		return Key{}, fmt.Errorf("store: refusing to store an empty profile set: %w", os.ErrInvalid)
	}
	// Hashing and writing need no lock: the temp file is this Put's alone
	// until the rename below commits it.
	k := Key{App: app, NP: np, Hash: HashOf(data)}
	dir := s.dirFor(app, np)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Key{}, fmt.Errorf("store: put %s: %w", k, err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return Key{}, fmt.Errorf("store: put %s: %w", k, err)
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return Key{}, fmt.Errorf("store: put %s: %w", k, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.pathFor(k)
	if _, err := os.Stat(path); err == nil {
		os.Remove(tmpName)
		return k, nil // content-addressed: same path means same bytes
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return Key{}, fmt.Errorf("store: put %s: %w", k, err)
	}
	if err := s.appendHistory(app, np, k.Hash); err != nil {
		// Un-land the set: left in place, a retry would hit the early
		// return above and never log it, and History would adopt it later
		// as an unlogged legacy set, in hash order instead of upload order.
		os.Remove(path)
		return Key{}, err
	}
	return k, nil
}

// appendHistory records one newly landed hash in the upload-order log.
// Caller holds s.mu.
func (s *Store) appendHistory(app string, np int, hash string) error {
	f, err := os.OpenFile(s.historyPath(app, np), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: history %s/%d: %w", app, np, err)
	}
	_, werr := f.WriteString(hash + "\n")
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("store: history %s/%d: %w", app, np, werr)
	}
	if cerr != nil {
		return fmt.Errorf("store: history %s/%d: %w", app, np, cerr)
	}
	return nil
}

// History returns the stored entries for one (app, np) in upload order —
// the order Puts first landed their content. The position of an entry in
// the returned slice is its stable history sequence number, the fold
// order rolling baselines use.
//
// The log is reconciled against the directory on every read: duplicate
// log lines collapse to their first occurrence, a logged hash whose file
// has vanished is ErrCorrupt (history names a run that no longer
// exists), and stored sets that predate the log (or were copied in by
// hand) are appended after all logged entries in hash order, so legacy
// stores keep a deterministic — if arbitrary — ordering. A scale whose
// directory holds no stored set has no history, whatever a log left
// behind there says: it is not a scale (see Scales).
//
// The cost is one directory read and one log read, whatever the app's
// other scales hold, and no lstat: the returned entries carry Size 0.
func (s *Store) History(app string, np int) ([]Entry, error) {
	if !ValidName(app) {
		return nil, badApp(app)
	}
	if np < 1 {
		return nil, fmt.Errorf("store: invalid scale %d: %w", np, os.ErrInvalid)
	}
	// Both reads sit under the write lock, so no Put of this process lands
	// between them: the log and the listing describe one state. The log is
	// read first because a Put renames before it logs — a cooperating
	// process can then only add files the log does not name yet, never
	// leave the log naming a file the listing missed.
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := os.ReadFile(s.historyPath(app, np))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: history %s/%d: %w", app, np, err)
	}
	stored, err := s.hashes(app, np)
	if err != nil || len(stored) == 0 {
		return nil, err
	}

	out := make([]Entry, 0, len(stored))
	logged := make([]bool, len(stored)) // indexed like stored
	for rest := string(raw); rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		hash := strings.TrimSpace(line)
		i := sort.SearchStrings(stored, hash)
		switch {
		case i < len(stored) && stored[i] == hash:
			if !logged[i] {
				logged[i] = true
				out = append(out, Entry{Key: Key{App: app, NP: np, Hash: hash}})
			}
		case validHash(hash): // anything else is a junk line, skipped
			return nil, fmt.Errorf("store: history %s/%d names %s but no such set is stored: %w",
				app, np, hash, ErrCorrupt)
		}
	}
	for i, hash := range stored { // hash-ascending, so unlogged legacy sets append deterministically
		if !logged[i] {
			out = append(out, Entry{Key: Key{App: app, NP: np, Hash: hash}})
		}
	}
	return out, nil
}

// Get returns the stored bytes for a key, verified against the content
// hash — corruption on disk surfaces as an error here, never as wrong
// bytes downstream.
func (s *Store) Get(k Key) ([]byte, error) {
	var data []byte
	err := s.hashCheck(k, func(path string) (_ string, err error) {
		data, err = os.ReadFile(path)
		return HashOf(data), err
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Verify is Get without the bytes: the stored file streams through
// SHA-256 and only the verdict is kept, with Get's errors.
func (s *Store) Verify(k Key) error {
	return s.hashCheck(k, func(path string) (string, error) {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		defer f.Close()
		buf := readBufs.Get().(*[]byte)
		defer readBufs.Put(buf)
		h := sha256.New()
		// The wrapper hides File.WriteTo, whose copy allocates its own buffer.
		_, err = io.CopyBuffer(h, struct{ io.Reader }{f}, *buf)
		return hex.EncodeToString(h.Sum(nil)), err
	})
}

// Holds is Verify for a caller that kept the bytes Get returned for k:
// the stored file is compared with want as it streams, and only a
// difference — in content or length, or a failed open or read — is
// hashed, by Verify, whose error Holds returns. Given Get's bytes it
// answers what Verify answers; given any others, nil means only that the
// file holds them.
func (s *Store) Holds(k Key, want []byte) error {
	if !validKey(k) {
		return s.Verify(k)
	}
	f, err := os.Open(s.pathFor(k))
	if err != nil {
		return s.Verify(k)
	}
	defer f.Close()
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	for {
		n, err := f.Read(*buf)
		if n > len(want) || !bytes.Equal((*buf)[:n], want[:n]) {
			return s.Verify(k)
		}
		want = want[n:]
		switch {
		case err == io.EOF && len(want) == 0:
			return nil
		case err != nil:
			return s.Verify(k)
		}
	}
}

// readBufs holds the buffers Verify and Holds stream a stored file through.
var readBufs = sync.Pool{New: func() any { buf := make([]byte, 64<<10); return &buf }}

// hashCheck validates k, hashes its file with hash, and names what went
// wrong the way Get and Verify both do.
func (s *Store) hashCheck(k Key, hash func(path string) (string, error)) error {
	if !validKey(k) {
		return fmt.Errorf("store: invalid key %s: %w", k, os.ErrInvalid)
	}
	got, err := hash(s.pathFor(k))
	switch {
	case os.IsNotExist(err):
		return fmt.Errorf("store: %s: %w", k, os.ErrNotExist)
	case err != nil:
		return fmt.Errorf("store: get %s: %w", k, err)
	case got != k.Hash:
		return fmt.Errorf("store: %s: content hash mismatch (stored bytes hash to %s): %w", k, got, ErrCorrupt)
	}
	return nil
}

// hashes lists the content hashes stored under <app>/<np>, ascending,
// from the directory's entry names and type bits alone — no lstat. A
// scale with no directory holds none.
func (s *Store) hashes(app string, np int) ([]string, error) {
	if !ValidName(app) {
		return nil, badApp(app)
	}
	if np < 1 {
		return nil, nil
	}
	files, err := os.ReadDir(s.dirFor(app, np))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list %s/%d: %w", app, np, err)
	}
	out := make([]string, 0, len(files))
	for _, f := range files { // ReadDir sorts by name, so hashes come out ordered
		hash, ok := strings.CutSuffix(f.Name(), ".json")
		if ok && !f.IsDir() && validHash(hash) {
			out = append(out, hash)
		}
	}
	return out, nil
}

// sized stats one stored set, in its scale's directory dir, for the Size
// its listing reports.
func sized(dir string, k Key) (Entry, error) {
	info, err := os.Lstat(setPath(dir, k.Hash))
	if err != nil {
		return Entry{}, fmt.Errorf("store: list %s: %w", k, err)
	}
	return Entry{Key: k, Size: info.Size()}, nil
}

// apps lists the app directories under the root, by name.
func (s *Store) apps() ([]string, error) {
	dirs, err := os.ReadDir(s.root)
	if err != nil {
		// A root that cannot be read is a broken store, not content that is
		// not stored: the error keeps its text and drops os.ErrNotExist.
		return nil, fmt.Errorf("store: list: %v", err)
	}
	var out []string
	for _, d := range dirs {
		if d.IsDir() && ValidName(d.Name()) {
			out = append(out, d.Name())
		}
	}
	return out, nil
}

// Scales returns the scales an app has a directory for, ascending, from
// one stat-free read of the app's directory. The first Put at a scale
// creates its directory and nothing removes it, so a listed scale may
// hold no stored set (a Put that failed, sets deleted by hand): such a
// directory is not a stored scale, and callers drop it once History or
// Only has looked inside.
func (s *Store) Scales(app string) ([]int, error) {
	if !ValidName(app) {
		return nil, badApp(app)
	}
	dirs, err := os.ReadDir(filepath.Join(s.root, app))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list %s: %w", app, err)
	}
	var nps []int
	for _, d := range dirs {
		// Only the spelling dirFor writes names a scale: "08" is not np=8.
		if np, err := strconv.Atoi(d.Name()); err == nil && np >= 1 && d.IsDir() && strconv.Itoa(np) == d.Name() {
			nps = append(nps, np)
		}
	}
	sort.Ints(nps)
	return nps, nil
}

// Count returns the number of stored sets, from directory names alone.
func (s *Store) Count() (int, error) {
	apps, err := s.apps()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, app := range apps {
		nps, err := s.Scales(app)
		if err != nil {
			return 0, err
		}
		for _, np := range nps {
			hashes, err := s.hashes(app, np)
			if err != nil {
				return 0, err
			}
			n += len(hashes)
		}
	}
	return n, nil
}

// List returns every stored entry, sorted by app name, then scale
// ascending, then hash — a deterministic order independent of insertion
// history.
func (s *Store) List() ([]Entry, error) {
	apps, err := s.apps()
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, app := range apps {
		sub, err := s.ListApp(app)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// ListApp returns the stored entries for one app, sorted by scale
// ascending then hash.
func (s *Store) ListApp(app string) ([]Entry, error) {
	nps, err := s.Scales(app)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, np := range nps {
		hashes, err := s.hashes(app, np)
		if err != nil {
			return nil, err
		}
		dir := s.dirFor(app, np)
		for _, hash := range hashes {
			e, err := sized(dir, Key{App: app, NP: np, Hash: hash})
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	return out, nil
}

// Resolve finds the unique stored entry for an app whose hash starts
// with prefix (a full hash is a prefix of itself). Ambiguous and
// missing prefixes are errors — the store never guesses.
func (s *Store) Resolve(app, prefix string) (Entry, error) {
	if prefix == "" || !validHashPrefix(prefix) {
		return Entry{}, fmt.Errorf("store: invalid hash prefix %q: %w", prefix, os.ErrInvalid)
	}
	nps, err := s.Scales(app)
	if err != nil {
		return Entry{}, err
	}
	var matches []Key
	for _, np := range nps {
		hashes, err := s.hashes(app, np)
		if err != nil {
			return Entry{}, err
		}
		for _, hash := range hashes {
			if strings.HasPrefix(hash, prefix) {
				matches = append(matches, Key{App: app, NP: np, Hash: hash})
			}
		}
	}
	switch len(matches) {
	case 0:
		return Entry{}, fmt.Errorf("store: no stored profile set for app %s matches hash %q: %w", app, prefix, os.ErrNotExist)
	case 1:
		return sized(s.dirFor(app, matches[0].NP), matches[0])
	default:
		return Entry{}, fmt.Errorf("store: hash prefix %q is ambiguous for app %s (%d matches): %w", prefix, app, len(matches), ErrAmbiguous)
	}
}

// Only finds the unique stored entry for (app, np). Zero entries or
// more than one are errors: when several uploads exist for one scale, a
// query must name the hash it wants.
func (s *Store) Only(app string, np int) (Entry, error) {
	hashes, err := s.hashes(app, np)
	if err != nil {
		return Entry{}, err
	}
	switch len(hashes) {
	case 0:
		return Entry{}, fmt.Errorf("store: no stored profile set for app %s at np=%d: %w", app, np, os.ErrNotExist)
	case 1:
		return sized(s.dirFor(app, np), Key{App: app, NP: np, Hash: hashes[0]})
	default:
		return Entry{}, fmt.Errorf("store: %d profile sets stored for app %s at np=%d; name the content hash to pick one: %w", len(hashes), app, np, ErrAmbiguous)
	}
}

func validKey(k Key) bool { return ValidName(k.App) && validHash(k.Hash) && k.NP >= 1 }

func validHash(h string) bool {
	if len(h) != sha256.Size*2 {
		return false
	}
	return validHashPrefix(h)
}

func validHashPrefix(h string) bool {
	if h == "" || len(h) > sha256.Size*2 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
