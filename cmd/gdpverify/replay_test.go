package main_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildGdpverify builds the command into a temporary directory.
func buildGdpverify(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gdpverify")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestReplayProvesFromTheStore runs -replay on a missing store, which
// must fail and create nothing, and with -symmetry after a cold -symmetry
// -store proof, which must succeed with the cold proof's summary and
// leave the store file as it was.
func TestReplayProvesFromTheStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real binary")
	}
	bin := buildGdpverify(t)
	dir := t.TempDir()
	st := filepath.Join(dir, "v.gdps")
	gdpverify := func(args ...string) ([]byte, error) {
		return exec.Command(bin, append([]string{"-n", "10", "-k", "2", "-store", st}, args...)...).CombinedOutput()
	}

	if out, err := gdpverify("-replay"); err == nil {
		t.Errorf("-replay on a missing store exited 0:\n%s", out)
	}
	if _, err := os.Stat(st); !os.IsNotExist(err) {
		t.Errorf("-replay on a missing store left a file behind: %v", err)
	}

	cold := filepath.Join(dir, "cold.txt")
	if out, err := gdpverify("-symmetry", "-summary", cold); err != nil {
		t.Fatalf("cold proof: %v\n%s", err, out)
	}
	before, err := os.ReadFile(st)
	if err != nil {
		t.Fatal(err)
	}
	replay := filepath.Join(dir, "replay.txt")
	if out, err := gdpverify("-symmetry", "-replay", "-summary", replay); err != nil {
		t.Fatalf("-replay after the cold proof: %v\n%s", err, out)
	}
	want, _ := os.ReadFile(cold)
	got, _ := os.ReadFile(replay)
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Errorf("-replay summary %q, cold summary %q", got, want)
	}
	after, err := os.ReadFile(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("-replay changed the store: %d bytes before, %d after", len(before), len(after))
	}
}
