package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

const k4Req = `{"protocol":"planarity","seed":7,"graph":{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}}`

// startServer certifies one K4 instance against an immediate-seal
// ledger and returns the test server plus the certificate key.
func startServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	s, err := serve.New(serve.Config{LedgerBatchSize: 1, LedgerFlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	resp, err := http.Post(ts.URL+"/v1/certify", "application/json", strings.NewReader(k4Req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: status %d", resp.StatusCode)
	}
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return ts, out.Key
}

// TestFetchAndVerifyOnline: the full client path — fetch, fold the
// inclusion proof, walk the root chain, replay the request locally.
func TestFetchAndVerifyOnline(t *testing.T) {
	ts, key := startServer(t)
	reqFile := filepath.Join(t.TempDir(), "req.json")
	if err := os.WriteFile(reqFile, []byte(k4Req), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", ts.URL, "-key", key, "-verify", "-replay", reqFile}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"inclusion proof ok", "root chain ok", "replay ok"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestOfflineVerifyAndTamper: saved artifacts verify with no server;
// any tampering with the saved certificate flips the exit code.
func TestOfflineVerifyAndTamper(t *testing.T) {
	ts, key := startServer(t)
	dir := t.TempDir()
	certFile := filepath.Join(dir, "cert.json")
	rootsFile := filepath.Join(dir, "roots.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", ts.URL, "-key", key, "-verify",
		"-save", certFile, "-saveroots", rootsFile}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("online fetch: exit %d: %s", code, stderr.String())
	}
	ts.Close() // offline from here on

	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-cert", certFile, "-roots", rootsFile, "-verify"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("offline verify: exit %d: %s", code, stderr.String())
	}

	// Flip the verdict inside the saved certificate entry: the leaf hash
	// no longer folds to the committed root.
	raw, err := os.ReadFile(certFile)
	if err != nil {
		t.Fatal(err)
	}
	var cert serve.CertificateJSON
	if err := json.Unmarshal(raw, &cert); err != nil {
		t.Fatal(err)
	}
	cert.Entry.Accepted = !cert.Entry.Accepted
	tampered, err := json.Marshal(cert)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(certFile, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-cert", certFile, "-roots", rootsFile, "-verify"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("tampered certificate: exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "REJECTED") {
		t.Fatalf("stderr does not name the rejection: %s", stderr.String())
	}
}

// TestReplayCatchesForgedVerdict: a certificate whose verdict was
// forged but whose proof was never re-anchored still fails replay —
// the local run reproduces the honest verdict.
func TestReplayCatchesForgedVerdict(t *testing.T) {
	ts, key := startServer(t)
	dir := t.TempDir()
	certFile := filepath.Join(dir, "cert.json")
	reqFile := filepath.Join(dir, "req.json")
	if err := os.WriteFile(reqFile, []byte(k4Req), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", ts.URL, "-key", key, "-save", certFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("fetch: exit %d: %s", code, stderr.String())
	}
	var cert serve.CertificateJSON
	raw, _ := os.ReadFile(certFile)
	if err := json.Unmarshal(raw, &cert); err != nil {
		t.Fatal(err)
	}
	cert.Entry.Fingerprint = "0000000000000000"
	tampered, _ := json.Marshal(cert)
	os.WriteFile(certFile, tampered, 0o644)

	stdout.Reset()
	stderr.Reset()
	code := run([]string{"-cert", certFile, "-replay", reqFile}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("forged fingerprint: exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "MISMATCH") {
		t.Fatalf("stderr does not name the mismatch: %s", stderr.String())
	}
}

// TestUnknownKey: a missing certificate is an I/O-class failure (2),
// with the server's not_found envelope surfaced.
func TestUnknownKey(t *testing.T) {
	ts, _ := startServer(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", ts.URL, "-key", strings.Repeat("ab", 32), "-verify"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("unknown key: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "not_found") {
		t.Fatalf("stderr does not surface the error code: %s", stderr.String())
	}
}

// TestRewrittenLeafIndexRejected: the inclusion proof's fold never reads
// leaf_index, so a certificate whose leaf_index was rewritten still
// folds to its root; -verify must catch it against the batch's root
// record, offline and online, and must not print the index as checked.
// The untouched certificate still verifies.
func TestRewrittenLeafIndexRejected(t *testing.T) {
	s, err := serve.New(serve.Config{LedgerBatchSize: 2, LedgerFlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	var key string
	for _, body := range []string{k4Req, strings.Replace(k4Req, `"seed":7`, `"seed":8`, 1)} {
		resp, err := http.Post(ts.URL+"/v1/certify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out serve.Response
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("certify: status %d, %v", resp.StatusCode, err)
		}
		if key == "" {
			key = out.Key // leaf 0 of the two-entry batch
		}
	}
	dir := t.TempDir()
	certFile := filepath.Join(dir, "cert.json")
	rootsFile := filepath.Join(dir, "roots.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", ts.URL, "-key", key, "-verify", "-save", certFile, "-saveroots", rootsFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("untouched certificate: exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "inclusion proof ok: leaf 0 of batch 0, 1 siblings") {
		t.Fatalf("stdout: %s", stdout.String())
	}

	raw, err := os.ReadFile(certFile)
	if err != nil {
		t.Fatal(err)
	}
	var cert serve.CertificateJSON
	if err := json.Unmarshal(raw, &cert); err != nil {
		t.Fatal(err)
	}
	cert.Proof.LeafIndex = 1
	tampered, err := json.Marshal(cert)
	if err != nil {
		t.Fatal(err)
	}
	tamperedFile := filepath.Join(dir, "tampered.json")
	if err := os.WriteFile(tamperedFile, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	// Online through a front that serves the rewritten certificate and
	// passes the root chain through.
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/certificates/") {
			w.Write(tampered)
			return
		}
		resp, err := http.Get(ts.URL + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer front.Close()
	for name, args := range map[string][]string{
		"offline": {"-cert", tamperedFile, "-roots", rootsFile, "-verify"},
		"online":  {"-addr", front.URL, "-key", key, "-verify"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Fatalf("%s: rewritten leaf_index: exit %d, want 1\nstdout: %s", name, code, stdout.String())
		}
		if strings.Contains(stdout.String(), "inclusion proof ok") || !strings.Contains(stderr.String(), "leaf index 1") {
			t.Fatalf("%s:\nstdout: %s\nstderr: %s", name, stdout.String(), stderr.String())
		}
	}
}
