package main

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestSIGTERMOnceAddressPublished: a SIGTERM sent the moment -addrfile is
// non-empty must drain the server and close its ledger, so run returns
// nil. Were the handler installed after the address is published, the
// signal's default action would kill the test binary instead.
func TestSIGTERMOnceAddressPublished(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr.txt")
	cfg := serve.Config{LedgerDir: filepath.Join(dir, "ledger")}
	done := make(chan error, 1)
	go func() { done <- run("127.0.0.1:0", addrFile, "", "", cfg) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before publishing its address: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the address file never appeared")
		}
	}
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Skipf("cannot signal the test process: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}
