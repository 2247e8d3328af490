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
// torn final line (the process died mid-append) is ignored on reload.
// A corrupt line anywhere *before* the end is a hard error — that is
// bit rot, not a crash artifact.
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
func OpenJournal(path, fingerprint string) (*Journal, map[string]json.RawMessage, error) {
	entries, err := replayJournal(path, fingerprint)
	switch {
	case os.IsNotExist(err):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: creating journal: %w", err)
		}
		if _, err := fmt.Fprintf(f, "%s %s\n", journalHeader, fingerprint); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("checkpoint: writing journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("checkpoint: syncing journal: %w", err)
		}
		return &Journal{f: f, path: path, keys: make(map[string]bool)}, map[string]json.RawMessage{}, nil
	case err != nil:
		return nil, nil, err
	}
	keys := make(map[string]bool, len(entries))
	for k := range entries {
		keys[k] = true
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: reopening journal: %w", err)
	}
	return &Journal{f: f, path: path, keys: keys}, entries, nil
}

// JournalFingerprint reads the fingerprint in the journal header at
// path without replaying entries. Callers that can *name* alternative
// configurations (the sweep CLI probing which -mechanism a journal was
// written under) use it to turn the generic mismatch error into a
// specific one. A missing file satisfies os.IsNotExist.
func JournalFingerprint(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return "", err
		}
		return "", fmt.Errorf("checkpoint: reading journal: %w", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	if !strings.HasPrefix(line, journalHeader+" ") {
		return "", fmt.Errorf("checkpoint: %s is not a journal (bad header)", path)
	}
	return strings.TrimPrefix(line, journalHeader+" "), nil
}

// replayJournal is OpenJournal's read path: header check, fingerprint
// check, per-line CRC validation, torn-final-line tolerance.
func replayJournal(path, fingerprint string) (map[string]json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err
		}
		return nil, fmt.Errorf("checkpoint: reading journal: %w", err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], journalHeader+" ") {
		return nil, fmt.Errorf("checkpoint: %s is not a journal (bad header)", path)
	}
	if got := strings.TrimPrefix(lines[0], journalHeader+" "); got != fingerprint {
		return nil, fmt.Errorf("checkpoint: journal was written under a different configuration (fingerprint %q, want %q)", got, fingerprint)
	}
	entries := make(map[string]json.RawMessage)
	for i := 1; i < len(lines); i++ {
		line := lines[i]
		if line == "" && i == len(lines)-1 {
			break // trailing newline
		}
		entry, err := parseJournalLine(line)
		if err != nil {
			if i == len(lines)-1 {
				break // torn final append from a crash; drop it
			}
			return nil, fmt.Errorf("checkpoint: journal line %d: %w", i+1, err)
		}
		entries[entry.K] = entry.V
	}
	return entries, nil
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
