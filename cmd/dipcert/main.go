// Command dipcert fetches and verifies certificates from the dipserve
// ledger — the client side of the Merkle-batched certificate log.
//
// Online, against a running server:
//
//	dipcert -addr http://127.0.0.1:8080 -key HASH            # fetch + print
//	dipcert -addr ... -key HASH -verify                      # + check the
//	    inclusion proof and walk the root chain to the advertised head
//	dipcert -addr ... -key HASH -verify -save cert.json      # keep the
//	    certificate (and -saveroots roots.json) for later offline checks
//
// Offline, from saved artifacts (no server, no network):
//
//	dipcert -cert cert.json -roots roots.json -verify
//
// Replay, confronting the ledger with a fresh local run:
//
//	dipcert -addr ... -key HASH -verify -replay request.json
//
// request.json is the original certify request body; dipcert rebuilds
// the instance, re-runs the protocol in process, and requires the
// canonical key, the verdict, and the deterministic trace fingerprint
// to match the certificate bit for bit.
//
// Exit status: 0 verified (or plain fetch succeeded), 1 verification
// failed (bad proof, broken chain, tampered entry, replay mismatch,
// or no proof yet), 2 usage or I/O error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// rootzDoc mirrors serve.RootzJSON for decoding (the embedded Head
// flattens into the same object).
type rootzDoc struct {
	ledger.Head
	Roots []ledger.RootRecord `json:"roots"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dipcert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "dipserve base URL (e.g. http://127.0.0.1:8080)")
	key := fs.String("key", "", "canonical request hash to fetch (with -addr)")
	certFile := fs.String("cert", "", "read the certificate from this file instead of fetching")
	rootsFile := fs.String("roots", "", "read the root chain from this file instead of fetching")
	verify := fs.Bool("verify", false, "verify the inclusion proof and the root chain")
	replayFile := fs.String("replay", "", "re-run this certify request locally and compare against the certificate")
	save := fs.String("save", "", "write the fetched certificate JSON to this file")
	saveRoots := fs.String("saveroots", "", "write the fetched root-chain JSON to this file")
	timeout := fs.Duration("timeout", 30*time.Second, "HTTP and replay-run deadline")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "dipcert: "+format+"\n", a...)
		return code
	}

	// Load the certificate: from disk, or from the server.
	var certRaw []byte
	switch {
	case *certFile != "":
		b, err := os.ReadFile(*certFile)
		if err != nil {
			return fail(2, "%v", err)
		}
		certRaw = b
	case *addr != "" && *key != "":
		b, err := httpGet(*addr+"/v1/certificates/"+*key, *timeout)
		if err != nil {
			return fail(2, "fetch certificate: %v", err)
		}
		certRaw = b
	default:
		fs.Usage()
		return fail(2, "need -cert FILE, or -addr and -key")
	}
	var cert serve.CertificateJSON
	if err := json.Unmarshal(certRaw, &cert); err != nil {
		return fail(2, "bad certificate JSON: %v", err)
	}
	if *save != "" {
		if err := os.WriteFile(*save, certRaw, 0o644); err != nil {
			return fail(2, "%v", err)
		}
	}

	fmt.Fprintf(stdout, "certificate %s\n", cert.Entry.Key)
	fmt.Fprintf(stdout, "  seq=%d protocol=%s n=%d m=%d seed=%d\n",
		cert.Entry.Seq, cert.Entry.Protocol, cert.Entry.Nodes, cert.Entry.Edges, cert.Entry.Seed)
	fmt.Fprintf(stdout, "  accepted=%v rounds=%d proof_size_bits=%d fingerprint=%s\n",
		cert.Entry.Accepted, cert.Entry.Rounds, cert.Entry.ProofSizeBits, cert.Entry.Fingerprint)
	fmt.Fprintf(stdout, "  status=%s\n", cert.Status)

	if *verify {
		if cert.Proof == nil {
			return fail(1, "certificate is %s: no inclusion proof to verify yet", cert.Status)
		}
		proof, err := cert.Proof.Proof(cert.Entry)
		if err != nil {
			return fail(1, "bad proof encoding: %v", err)
		}
		if err := proof.Verify(); err != nil {
			return fail(1, "inclusion proof REJECTED: %v", err)
		}

		// Walk the root chain from the proof's batch to the head: the
		// certificate is then anchored not just in its own batch but in
		// everything the ledger has committed since.
		var rootsRaw []byte
		switch {
		case *rootsFile != "":
			b, err := os.ReadFile(*rootsFile)
			if err != nil {
				return fail(2, "%v", err)
			}
			rootsRaw = b
		case *addr != "":
			b, err := httpGet(fmt.Sprintf("%s/v1/ledger/rootz?from=%d", *addr, proof.BatchIndex), *timeout)
			if err != nil {
				return fail(2, "fetch root chain: %v", err)
			}
			rootsRaw = b
		default:
			return fail(2, "-verify needs -roots FILE or -addr for the root chain")
		}
		if *saveRoots != "" {
			if err := os.WriteFile(*saveRoots, rootsRaw, 0o644); err != nil {
				return fail(2, "%v", err)
			}
		}
		var rootz rootzDoc
		if err := json.Unmarshal(rootsRaw, &rootz); err != nil {
			return fail(2, "bad root-chain JSON: %v", err)
		}
		if err := checkChain(proof, rootz); err != nil {
			return fail(1, "root chain REJECTED: %v", err)
		}
		fmt.Fprintf(stdout, "  inclusion proof ok: leaf %d of batch %d, %d siblings\n",
			proof.LeafIndex, proof.BatchIndex, len(proof.Siblings))
		fmt.Fprintf(stdout, "  root chain ok: batch %d anchored under head %s (%d batches)\n",
			proof.BatchIndex, rootz.Chain, rootz.Batches)
	}

	if *replayFile != "" {
		if err := replay(*replayFile, cert.Entry, *timeout, stdout); err != nil {
			return fail(1, "replay MISMATCH: %v", err)
		}
	}
	return 0
}

// checkChain anchors a verified proof in the advertised chain head:
// the record at the proof's batch must restate the proof's root and
// chain values and fit its leaf index (ledger.Proof.CheckLeaf), every
// subsequent link must verify, and the last link must equal the head
// the server (or the saved file) advertises.
func checkChain(proof *ledger.Proof, rootz rootzDoc) error {
	records := rootz.Roots
	// Tolerate a full chain dump: slice off everything before the
	// proof's batch so the suffix starts where the proof anchors.
	for len(records) > 0 && records[0].Index < proof.BatchIndex {
		records = records[1:]
	}
	if len(records) == 0 || records[0].Index != proof.BatchIndex {
		return fmt.Errorf("no root record for batch %d", proof.BatchIndex)
	}
	r0 := records[0]
	if r0.Root != ledger.Hex(proof.Root) || r0.Chain != ledger.Hex(proof.Chain) || r0.PrevChain != ledger.Hex(proof.PrevChain) {
		return fmt.Errorf("batch %d root record disagrees with the proof", proof.BatchIndex)
	}
	if err := proof.CheckLeaf(r0); err != nil {
		return err
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

// replay re-runs the certify request locally and confronts the
// certificate: canonical key, verdict, and trace fingerprint must all
// reproduce. This is the paper's claim made operational — the verdict
// is a deterministic function of (protocol, instance, seed), so anyone
// can recompute it without trusting the server.
func replay(file string, e ledger.Entry, timeout time.Duration, stdout io.Writer) error {
	b, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var req serve.Request
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("bad request JSON: %w", err)
	}
	inst, err := serve.BuildInstance(&req)
	if err != nil {
		return fmt.Errorf("build instance: %w", err)
	}
	g := inst.G
	key := serve.CanonicalKey(req.Protocol, req.Seed, g.N(), g.Edges(), inst.PathPos, inst.Rotation)
	if string(key) != e.Key {
		return fmt.Errorf("request hashes to %s, certificate is for %s (different request?)", key, e.Key)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, err := serve.RunProtocol(ctx, req.Protocol, inst, req.Seed, obs.NewRegistry())
	if err != nil {
		return fmt.Errorf("local run: %w", err)
	}
	if res.Accepted != e.Accepted {
		return fmt.Errorf("local run accepted=%v, certificate says %v", res.Accepted, e.Accepted)
	}
	if res.Fingerprint != e.Fingerprint {
		return fmt.Errorf("local fingerprint %s, certificate has %s", res.Fingerprint, e.Fingerprint)
	}
	if res.ProofSizeBits != e.ProofSizeBits {
		return fmt.Errorf("local proof_size_bits=%d, certificate has %d", res.ProofSizeBits, e.ProofSizeBits)
	}
	fmt.Fprintf(stdout, "  replay ok: key, verdict (accepted=%v), and fingerprint %s reproduced locally\n",
		res.Accepted, res.Fingerprint)
	return nil
}

func httpGet(url string, timeout time.Duration) ([]byte, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}
