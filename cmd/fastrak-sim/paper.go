package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
	"repro/internal/pcap"
	"repro/internal/tcpmodel"
	"repro/internal/telemetry"
)

// playMicrobench prints the §3 microbenchmarks: Figures 3, 4(a), 4(b), 5.
func playMicrobench(w io.Writer, _ params) error {
	printNetwork(w, "Figure 3: baseline network performance", experiments.Fig3())
	printCPU(w, "Figure 4(a): baseline CPU overhead", experiments.Fig4a())
	printCPU(w, "Figure 4(b): combined CPU overhead", experiments.Fig4b())
	printNetwork(w, "Figure 5: combined network performance", experiments.Fig5())
	return nil
}

func printNetwork(w io.Writer, title string, rows []experiments.MicroResult) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tsize(B)\tthroughput(Gbps)\tavg-lat\tp99-lat\tburst-TPS\tburst-lat")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%v\t%v\t%.0f\t%v\n",
			r.Config, r.Size, r.ThroughputGbps,
			r.AvgLatency.Round(time.Microsecond), r.P99Latency.Round(time.Microsecond),
			r.BurstTPS, r.BurstLatency.Round(time.Microsecond))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func printCPU(w io.Writer, title string, rows []experiments.CPUResult) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tsize(B)\tCPUs\tthroughput(Gbps)\tCPUs/Gbps")
	for _, r := range rows {
		perGbps := 0.0
		if r.ThroughputGbps > 0 {
			perGbps = r.CPUs / r.ThroughputGbps
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\n", r.Config, r.Size, r.CPUs, r.ThroughputGbps, perGbps)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// playEvalbench prints the §6 evaluation: Tables 1-4 and the §6.2.2
// controller cost, at the paper's request counts divided by
// experiments.EvalScale (the comparisons are ratios and survive it).
func playEvalbench(w io.Writer, _ params) error {
	fmt.Fprintln(w, "Table 1: memcached TPS (a: no background, b: with IOzone VM)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "part\tinterface\tTPS\tmean-latency\t#CPUs")
	for i, label := range []string{"1a", "1b"} {
		for _, r := range experiments.Table1(i == 1) {
			fmt.Fprintf(tw, "%s\t%s\t%.0f\t%v\t%.1f\n",
				label, r.Interface, r.TPS, r.MeanLatency.Round(time.Microsecond), r.CPUs)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Table 2: memcached finish times as servers shift to SR-IOV VF")
	printFinish(w, experiments.Table2())
	fmt.Fprintln(w, "Table 3: finish times with disk-bound background transfers")
	printFinish(w, experiments.Table3())

	fmt.Fprintln(w, "Table 4: FasTrak dynamic flow migration (memcached + scp background)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tmean-finish\tmean-TPS\tmean-latency\t#CPUs\toffloaded-at")
	for _, r := range experiments.Table4() {
		off := "-"
		if r.OffloadedAt > 0 {
			off = r.OffloadedAt.Round(time.Millisecond).String()
		}
		fmt.Fprintf(tw, "%s\t%v\t%.0f\t%v\t%.1f\t%s\n",
			r.Mode, r.MeanFinish.Round(time.Millisecond), r.MeanTPS,
			r.MeanLatency.Round(time.Microsecond), r.CPUs, off)
	}
	tw.Flush()
	fmt.Fprintln(w)

	fmt.Fprintln(w, "§6.2.2: controller cost (busy memcached workload)")
	cc := experiments.ControllerCost(3 * time.Second)
	fmt.Fprintf(w, "  control intervals: %d over %v\n", cc.ControlIntervals, cc.SimDuration)
	fmt.Fprintf(w, "  control messages:  %d (%d bytes on the wire)\n", cc.Messages, cc.MessageBytes)
	fmt.Fprintf(w, "  datapath samples:  %d\n", cc.Samples)
	fmt.Fprintf(w, "  placer flow-mods:  %d\n", cc.FlowMods)
	fmt.Fprintf(w, "  tracked flows:     %d\n", cc.ActiveFlows)
	return nil
}

func printFinish(w io.Writer, rows []experiments.Table2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "traffic-via-VIF\tmean-finish\tmean-TPS\tmean-latency\t#CPUs")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d%%\t%v\t%.0f\t%v\t%.1f\n",
			r.PercentVIF, r.MeanFinish.Round(time.Millisecond), r.MeanTPS,
			r.MeanLatency.Round(time.Microsecond), r.CPUs)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// Figure 12 shifts the flow at fig12Shift and prints every fig12Every-th
// in-order data point (recovery events always print).
const fig12Shift, fig12Every = 20 * time.Millisecond, 50

// playFig12 prints Figure 12 and writes the run's flight-recorder trace:
// the §6.2.2 reordering episode (tcam-install → VIF losses → dup ACKs →
// fast retransmits, no timeouts) in causal order.
func playFig12(w io.Writer, p params) error {
	path := p.path("fig12-trace.json")
	res, tel := experiments.Fig12Traced(fig12Shift, nil)
	if err := telemetry.WriteFile(path, func(f io.Writer) error {
		return telemetry.WriteChromeTrace(f, tel.Recorder, tel.Sampler)
	}); err != nil {
		return err
	}
	written, retained := tel.Recorder.Recorded()
	fmt.Fprintf(w, "# flight recorder: %d events (%d retained) -> %s\n", written, retained, path)
	printFig12(w, res)
	return nil
}

// playFig12Pcap prints Figure 12 and captures the receiver's access link.
func playFig12Pcap(w io.Writer, p params) error {
	path := p.path("fig12.pcap")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	capture, err := pcap.NewWriter(f, 0)
	if err != nil {
		return err
	}
	// The recorder Fig12Traced attaches changes no result and goes
	// unread here.
	res, _ := experiments.Fig12Traced(fig12Shift, capture)
	fmt.Fprintf(w, "# captured %d frames to %s\n", capture.Packets(), path)
	printFig12(w, res)
	return f.Close()
}

// printFig12 prints the TCP sequence progression of a bulk flow as
// FasTrak shifts it onto the SR-IOV express lane, as a gnuplot-ready
// series (time, sequence, event), then the §6.2.2 netstat-style summary.
func printFig12(w io.Writer, res experiments.Fig12Result) {
	fmt.Fprintf(w, "# flow migration trace: %d-byte transfer, shifted at %v\n", res.TotalBytes, res.ShiftAt)
	fmt.Fprintf(w, "# time(ms)  seq  event\n")
	n := 0
	for _, tp := range res.Trace {
		if tp.Kind == tcpmodel.TraceAck {
			continue
		}
		if tp.Kind == tcpmodel.TraceData {
			if n++; n%fig12Every != 0 {
				continue
			}
		}
		fmt.Fprintf(w, "%.3f  %d  %s\n", float64(tp.At)/float64(time.Millisecond), tp.Seq, tp.Kind)
	}

	st := res.Stats
	fmt.Fprintf(w, "\n# summary (cf. §6.2.2: one delayed ack, TCP recovered twice, 30 fast retransmits, no timeouts)\n"+
		"segments sent:      %d\nretransmissions:    %d\nfast retransmits:   %d\ntimeouts:           %d\n"+
		"dup acks seen:      %d\ndelayed acks:       %d\nreordered arrivals: %d\n",
		st.Segments, st.Retransmits, st.FastRetransmits, st.Timeouts, st.DupAcksSeen, st.DelayedAcks, st.Reordered)
	if res.Finished > 0 {
		rate := float64(res.TotalBytes) * 8 / res.Finished.Seconds() / 1e9
		fmt.Fprintf(w, "completed at:       %v (%.2f Gbps)\n", res.Finished.Round(time.Millisecond), rate)
	} else {
		fmt.Fprintf(w, "completed:          no (within the run budget)\n")
	}
}
