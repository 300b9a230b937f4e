// Command traceinspect summarizes or converts a binary probe trace
// produced by the napawine simulator.
//
// Usage:
//
//	traceinspect -trace probe.nwt            # header + per-peer summary
//	traceinspect -trace probe.nwt -csv out.csv
//	traceinspect -trace probe.nwt -top 5     # top contributors only
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"napawine/internal/analysis"
	"napawine/internal/packet"
	"napawine/internal/report"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "binary trace file (required)")
		csvPath   = flag.String("csv", "", "also convert the trace to CSV at this path")
		top       = flag.Int("top", 10, "show the top-N peers by video bytes")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "traceinspect: -trace is required")
		os.Exit(2)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := packet.NewReader(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace %s\n  probe: %v\n  label: %q\n", *tracePath, r.Probe(), r.Label())

	var recs []packet.Record
	agg := analysis.New(r.Probe(), analysis.DefaultConfig())
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fatal(err)
		}
		agg.Consume(rec)
		if *csvPath != "" {
			recs = append(recs, rec)
		}
	}
	fmt.Printf("  records: %d, distinct peers: %d\n\n", agg.Records(), agg.PeerCount())

	t := report.NewTable(fmt.Sprintf("Top %d peers by video bytes", *top),
		"Peer", "Video RX", "Video TX", "Total RX", "Total TX", "MinIPG", "Hops")
	for i, addr := range agg.PeerAddrs() {
		if i >= *top {
			break
		}
		p := agg.Peer(addr)
		hops := "-"
		if p.Hops() >= 0 {
			hops = fmt.Sprintf("%d", p.Hops())
		}
		ipg := "-"
		if p.MinIPG > 0 {
			ipg = p.MinIPG.String()
		}
		t.Add(addr.String(),
			fmt.Sprintf("%d", p.VideoDown), fmt.Sprintf("%d", p.VideoUp),
			fmt.Sprintf("%d", p.TotalDown), fmt.Sprintf("%d", p.TotalUp),
			ipg, hops)
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}

	if *csvPath != "" {
		out, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		// Close reports the final write's failure, so its error counts too.
		if err := errors.Join(packet.WriteCSV(out, recs), out.Close()); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d records to %s\n", len(recs), *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceinspect:", err)
	os.Exit(1)
}
