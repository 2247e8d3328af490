package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testFP = "0123456789abcdef"

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	jr, entries, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("OpenJournal(create): %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal has %d entries", len(entries))
	}
	type rec struct{ V int }
	if err := jr.Append("a", rec{1}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := jr.Append("b", rec{2}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// A retried cell appends again; the later entry must win on reload.
	if err := jr.Append("a", rec{3}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if jr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", jr.Len())
	}
	if err := jr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	jr2, entries, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("OpenJournal(reload): %v", err)
	}
	defer jr2.Close()
	if len(entries) != 2 {
		t.Fatalf("reloaded %d entries, want 2", len(entries))
	}
	var a rec
	if err := json.Unmarshal(entries["a"], &a); err != nil {
		t.Fatalf("decoding entry a: %v", err)
	}
	if a.V != 3 {
		t.Fatalf("entry a = %d, want the superseding value 3", a.V)
	}
	// Appending after reload must keep working.
	if err := jr2.Append("c", rec{4}); err != nil {
		t.Fatalf("Append after reload: %v", err)
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	jr, _, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	jr.Close()
	if _, _, err := OpenJournal(path, "feedfacefeedface"); err == nil {
		t.Fatal("OpenJournal accepted a journal with a different fingerprint")
	}
}

func TestJournalTornFinalLineDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	jr, _, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := jr.Append("a", 1); err != nil {
		t.Fatalf("Append: %v", err)
	}
	jr.Close()
	// Simulate a crash mid-append: a partial line with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"k":"b","v":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jr2, entries, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("OpenJournal after torn append: %v", err)
	}
	defer jr2.Close()
	if len(entries) != 1 || entries["a"] == nil {
		t.Fatalf("torn journal reloaded as %v, want just entry a", entries)
	}
	// The journal must stay appendable after a torn line: a new entry
	// supersedes the debris (the reload drops the torn tail either way).
	if err := jr2.Append("b", 2); err != nil {
		t.Fatalf("Append after torn line: %v", err)
	}
}

func TestJournalMidFileCorruptionIsFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	jr, _, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := jr.Append("a", 1); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := jr.Append("b", 2); err != nil {
		t.Fatalf("Append: %v", err)
	}
	jr.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first entry (line 2) while a valid entry follows:
	// that's bit rot, not a crash artifact, and must be a hard error.
	lines := strings.Split(string(data), "\n")
	lines[1] = "00000000" + lines[1][8:]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, testFP); err == nil {
		t.Fatal("OpenJournal accepted mid-file corruption")
	}
}

func TestJournalRejectsNonJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.journal")
	if err := os.WriteFile(path, []byte("hello world\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, testFP); err == nil {
		t.Fatal("OpenJournal accepted a non-journal file")
	}
}

func TestJournalEmptyKeyRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	jr, _, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer jr.Close()
	if err := jr.Append("", 1); err == nil {
		t.Fatal("Append accepted an empty key")
	}
}
