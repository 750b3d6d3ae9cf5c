package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"

	"repro/internal/ledger"
	"repro/internal/protocol"
	"repro/internal/serve"
)

// buildHistory writes an entries-long certificate history into dir
// with the ledger API, in 64-entry batches as the server writes them.
// Entry contents and timestamps derive from seed alone, so the same
// seed writes byte-identical files.
func buildHistory(dir string, seed int64, entries int) error {
	store, err := ledger.OpenFileStore(dir)
	if err != nil {
		return err
	}
	var clock int64 = 1_700_000_000_000_000_000
	led, err := ledger.Open(store, ledger.Config{
		BatchSize: 64,
		Now:       func() int64 { clock += 1_000_000; return clock },
	})
	if err != nil {
		store.Close()
		return err
	}
	names := protocol.Names()
	rng := rand.New(rand.NewSource(derive(seed, "history", 0)))
	for i := 0; i < entries; i++ {
		name := names[i%len(names)]
		d, _ := protocol.Get(name)
		n := 48 + rng.Intn(209)
		e := ledger.Entry{
			Key:           fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64()),
			Protocol:      name,
			Nodes:         n,
			Edges:         n + rng.Intn(2*n),
			Seed:          rng.Int63(),
			Accepted:      true,
			Rounds:        d.Rounds,
			ProofSizeBits: 64 + rng.Intn(900),
			TotalBits:     n * (64 + rng.Intn(900)),
			MaxCoinBits:   8 + rng.Intn(24),
			Fingerprint:   fmt.Sprintf("%016x", rng.Uint64()),
		}
		if _, _, err := led.Append(e); err != nil {
			led.Close()
			return err
		}
	}
	return led.Close()
}

// certificate audit: fetch a sample of certificates after the timed
// phase and verify each the way cmd/dipcert does — the entry restates
// the response, the inclusion proof folds to the batch root, and the
// root chain walks from that batch to the advertised head.

type rootzDoc struct {
	ledger.Head
	Roots []ledger.RootRecord `json:"roots"`
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, b)
	}
	return json.Unmarshal(b, v)
}

// auditCertificate verifies the certificate of one timed response.
func auditCertificate(c *http.Client, base string, s sample) error {
	var cert serve.CertificateJSON
	if err := getJSON(c, base+"/v1/certificates/"+s.key, &cert); err != nil {
		return err
	}
	if cert.Entry.Key != s.key || cert.Entry.Fingerprint != s.fp || !cert.Entry.Accepted {
		return fmt.Errorf("certificate %s does not restate the response", s.key)
	}
	if cert.Proof == nil {
		return fmt.Errorf("certificate %s is %s: no inclusion proof", s.key, cert.Status)
	}
	proof, err := cert.Proof.Proof(cert.Entry)
	if err != nil {
		return err
	}
	if err := proof.Verify(); err != nil {
		return fmt.Errorf("certificate %s: %w", s.key, err)
	}
	var rootz rootzDoc
	if err := getJSON(c, fmt.Sprintf("%s/v1/ledger/rootz?from=%d", base, proof.BatchIndex), &rootz); err != nil {
		return err
	}
	return checkChain(proof, rootz)
}

// checkChain anchors a verified proof in the advertised chain head.
func checkChain(proof *ledger.Proof, rootz rootzDoc) error {
	records := rootz.Roots
	if len(records) == 0 || records[0].Index != proof.BatchIndex {
		return fmt.Errorf("no root record for batch %d", proof.BatchIndex)
	}
	r0 := records[0]
	if r0.Root != ledger.Hex(proof.Root) || r0.Chain != ledger.Hex(proof.Chain) || r0.PrevChain != ledger.Hex(proof.PrevChain) {
		return fmt.Errorf("batch %d root record disagrees with the proof", proof.BatchIndex)
	}
	head, err := ledger.VerifyRootChain(records)
	if err != nil {
		return err
	}
	if got := ledger.Hex(head); got != rootz.Chain {
		return fmt.Errorf("chain walks to %s, head advertises %s", got, rootz.Chain)
	}
	return nil
}
