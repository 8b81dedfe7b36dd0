// Command manifestdiff compares two campaign manifests under the shard
// merge contract, so CI and operators can assert that a sharded (or
// dispatched) campaign reproduced an unsharded reference:
//
//	manifestdiff a.json b.json
//
// Structural fields — name, job counts, point identities, metric names,
// and the exactly-merged statistics (N, min, max) — must match
// byte-for-byte. Mean, standard deviation, and CI95 must agree within a
// relative tolerance (-tol, default 1e-9): the pooled-variance merge
// reassociates floating-point sums, so the last bits legitimately
// wobble. Medians are compared only when both sides are exact; a median
// marked median_approx (a multi-shard merge, or the streaming P-squared
// estimate beyond five replicates) is an estimate and is skipped.
// Execution metadata — worker counts, fresh-build and shard-range
// fields — is ignored: it changes wall clock, never results.
//
// The comparison itself is dispatch.DiffManifests; cmd/runlog diff
// applies the same contract to the manifests of two ledger records.
//
// Exit status: 0 when equivalent, 1 when the manifests differ, 2 on
// usage or read errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wsncover/internal/dispatch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its exit status returned instead of exited.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("manifestdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tol", 1e-9, "relative tolerance for mean/stddev/CI95")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: manifestdiff [-tol t] a.json b.json")
		return 2
	}
	a, b := fs.Arg(0), fs.Arg(1)
	diffs, err := dispatch.DiffManifests(a, b, *tol)
	if err != nil {
		fmt.Fprintln(stderr, "manifestdiff:", err)
		return 2
	}
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(stdout, d)
		}
		fmt.Fprintf(stdout, "%d difference(s) between %s and %s\n", len(diffs), a, b)
		return 1
	}
	fmt.Fprintf(stdout, "%s and %s are equivalent (modulo estimated medians and execution metadata)\n", a, b)
	return 0
}
