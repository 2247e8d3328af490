package checkpoint

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
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
	// The journal must stay appendable after a torn line, and what is
	// appended must survive the next reopen: the torn tail is cut, not
	// left to fuse with the new entry into a corrupt mid-file line.
	if err := jr2.Append("b", 2); err != nil {
		t.Fatalf("Append after torn line: %v", err)
	}
	jr2.Close()
	jr3, entries, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("OpenJournal after appending past a torn line: %v", err)
	}
	defer jr3.Close()
	if len(entries) != 2 || string(entries["a"]) != "1" || string(entries["b"]) != "2" {
		t.Fatalf("journal reloaded as %v, want entries a and b", entries)
	}
}

// FuzzOpenJournal: a journal with a valid header and arbitrary bytes
// after it is either refused, or it resumes — one Append, Close and
// reopen returns every entry the first open returned plus the new one.
func FuzzOpenJournal(f *testing.F) {
	line := func(body string) string {
		return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(body)), body)
	}
	a, b := line(`{"k":"a","v":1}`), line(`{"k":"b","v":[2]}`)
	for _, seed := range []string{
		"",
		a,
		a + b,
		a + `deadbeef {"k":"b","v":`,
		a + strings.TrimSuffix(b, "\n"),
		a + "\n",
		"garbage\n" + a,
		a + line(`{"k":"","v":1}`),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "cells.journal")
		if err := os.WriteFile(path, append([]byte(journalHeader+" "+testFP+"\n"), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		jr, first, err := OpenJournal(path, testFP)
		if err != nil {
			return // refused
		}
		const key = "fuzz-new-cell"
		if err := jr.Append(key, 42); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}
		jr2, second, err := OpenJournal(path, testFP)
		if err != nil {
			t.Fatalf("reopen after one append: %v", err)
		}
		defer jr2.Close()
		if string(second[key]) != "42" {
			t.Fatalf("new entry reloaded as %q", second[key])
		}
		for k, v := range first {
			if k != key && string(second[k]) != string(v) {
				t.Fatalf("entry %q reloaded as %q, first open returned %q", k, second[k], v)
			}
		}
	})
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
