package checkpoint

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
)

// Journal is an append-only record of completed sweep cells. Each entry
// is one line: an 8-hex-digit CRC32 of the JSON body, a space, the JSON
// object {"k": key, "v": value}. The first line is a header carrying a
// format tag and the owner's configuration fingerprint, so a journal
// written under one sweep setup cannot silently steer a different one.
//
// Crash tolerance: appends are flushed and fsynced per entry, and a
// torn final line (the process died mid-append) is dropped on reload
// and cut from the file. A corrupt line anywhere *before* the end is a
// hard error — that is bit rot, not a crash artifact.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	keys map[string]bool
}

const journalHeader = "ICKPJ1"

type journalEntry struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

// OpenJournal opens (or creates) the journal at path and replays it,
// returning the surviving entries keyed by cell key. Later entries for
// a key supersede earlier ones (a retried cell appends again). The
// fingerprint must match the header of an existing journal.
//
// A torn tail is cut off the file (and the cut fsynced) before the
// journal is reopened for append: bytes appended after the debris would
// fuse with it into one corrupt line that is no longer last, and the
// next open would refuse the whole journal.
func OpenJournal(path, fingerprint string) (*Journal, map[string]json.RawMessage, error) {
	entries, keep, size, err := replayJournal(path, fingerprint)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: opening journal: %w", err)
	}
	if keep < size {
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("checkpoint: cutting torn journal tail: %w", err)
		}
	}
	if keep == 0 {
		if _, err := fmt.Fprintf(f, "%s %s\n", journalHeader, fingerprint); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("checkpoint: writing journal header: %w", err)
		}
	}
	if keep < size || keep == 0 {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("checkpoint: syncing journal: %w", err)
		}
	}
	keys := make(map[string]bool, len(entries))
	for k := range entries {
		keys[k] = true
	}
	return &Journal{f: f, path: path, keys: keys}, entries, nil
}

// replayJournal is OpenJournal's read path: header check, fingerprint
// check, per-line CRC validation, torn-final-line tolerance. It returns
// the entries, the length of the file prefix that holds them (the
// header and every complete entry, each ending in a newline; 0 when
// even the header's newline is missing) and the file's size. A final
// line without its newline is a torn append even when its checksum
// holds, so an entry counts only once its newline is on disk.
func replayJournal(path, fingerprint string) (map[string]json.RawMessage, int64, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]json.RawMessage{}, 0, 0, err
		}
		return nil, 0, 0, fmt.Errorf("checkpoint: reading journal: %w", err)
	}
	size := int64(len(data))
	header, rest, terminated := strings.Cut(string(data), "\n")
	if !strings.HasPrefix(header, journalHeader+" ") {
		return nil, 0, 0, fmt.Errorf("checkpoint: %s is not a journal (bad header)", path)
	}
	if got := strings.TrimPrefix(header, journalHeader+" "); got != fingerprint {
		return nil, 0, 0, fmt.Errorf("checkpoint: journal was written under a different configuration (fingerprint %q, want %q)", got, fingerprint)
	}
	entries := make(map[string]json.RawMessage)
	if !terminated {
		return entries, 0, size, nil
	}
	keep := int64(len(header) + 1)
	for n := 2; rest != ""; n++ {
		line, tail, ok := strings.Cut(rest, "\n")
		if !ok {
			break // torn final append from a crash; drop it
		}
		entry, err := parseJournalLine(line)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("checkpoint: journal line %d: %w", n, err)
		}
		entries[entry.K] = entry.V
		keep += int64(len(line) + 1)
		rest = tail
	}
	return entries, keep, size, nil
}

func parseJournalLine(line string) (journalEntry, error) {
	var entry journalEntry
	crcHex, body, ok := strings.Cut(line, " ")
	if !ok || len(crcHex) != 8 {
		return entry, fmt.Errorf("malformed entry")
	}
	var want uint32
	if _, err := fmt.Sscanf(crcHex, "%08x", &want); err != nil {
		return entry, fmt.Errorf("malformed checksum: %w", err)
	}
	if got := crc32.ChecksumIEEE([]byte(body)); got != want {
		return entry, fmt.Errorf("checksum mismatch (line %08x, computed %08x)", want, got)
	}
	if err := json.Unmarshal([]byte(body), &entry); err != nil {
		return entry, fmt.Errorf("decoding: %w", err)
	}
	if entry.K == "" {
		return entry, fmt.Errorf("empty key")
	}
	return entry, nil
}

// Append durably records one completed cell. The entry is on disk
// (written and fsynced) before Append returns. Safe for concurrent use
// by sweep workers.
func (j *Journal) Append(key string, v interface{}) error {
	if key == "" {
		return fmt.Errorf("checkpoint: empty journal key")
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding journal value: %w", err)
	}
	body, err := json.Marshal(journalEntry{K: key, V: raw})
	if err != nil {
		return fmt.Errorf("checkpoint: encoding journal entry: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := fmt.Fprintf(j.f, "%08x %s\n", crc32.ChecksumIEEE(body), body); err != nil {
		return fmt.Errorf("checkpoint: appending to journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing journal: %w", err)
	}
	j.keys[key] = true
	return nil
}

// Len returns the number of distinct journaled keys.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.keys)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the journal's file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
