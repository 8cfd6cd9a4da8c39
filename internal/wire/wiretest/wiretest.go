// Package wiretest checks encoders against committed byte-exact format
// fixtures: testdata/<name>.hex in the calling package's directory,
// lowercase hex with 32 bytes per line. There is no regeneration flag
// on purpose — a fixture changes only by a deliberate edit, because a
// changed fixture is a changed wire or disk format.
package wiretest

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Check fails t unless got equals the bytes of testdata/<name>.hex.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".hex")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("fixture %s: %v", path, err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatalf("fixture %s: %v", path, err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s: encoding differs from the committed fixture\n got %s\nwant %s", name, Format(got), Format(want))
	}
}

// Format renders b in the fixture layout.
func Format(b []byte) string {
	h := hex.EncodeToString(b)
	var sb strings.Builder
	for len(h) > 64 {
		sb.WriteString(h[:64])
		sb.WriteByte('\n')
		h = h[64:]
	}
	sb.WriteString(h)
	sb.WriteByte('\n')
	return sb.String()
}
