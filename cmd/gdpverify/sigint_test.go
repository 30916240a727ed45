//go:build !windows

package main_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestSIGINTFlushesPartialJSON builds the real binary, interrupts it in
// the middle of an exhaustive sweep far too large to finish, and checks
// that the partial JSON report still lands on stdout with the
// interrupted marker set — the contract the doc comment promises.
func TestSIGINTFlushesPartialJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real binary")
	}
	bin := buildGdpverify(t)

	// ~C(220,4) fault sets: minutes of sweep, so the interrupt always
	// lands mid-run.
	cmd := exec.Command(bin, "-n", "200", "-k", "4", "-json")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	time.Sleep(400 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("signal: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		// Interrupted run reports !OK, so a non-zero exit is expected.
		if err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("wait: %v\nstderr: %s", err, stderr.Bytes())
			}
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("binary did not exit within 30s of SIGINT\nstderr: %s", stderr.Bytes())
	}

	var out struct {
		OK     bool `json:"ok"`
		Report struct {
			Interrupted bool `json:"interrupted"`
		} `json:"report"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout.Bytes())
	}
	if !out.Report.Interrupted {
		t.Fatalf("report not marked interrupted:\n%s", stdout.Bytes())
	}
	if out.OK {
		t.Fatal("interrupted run reported ok=true")
	}
}
