// Command pcapdump prints testbed pcap captures (fastrak-sim fig12-pcap's
// or an internal/pcap.Tap's) one line per frame, tcpdump-style, decoding
// the testbed's wire formats including GRE tenant keys and VXLAN VNIs.
//
// Usage:
//
//	pcapdump trace.pcap
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/tunnel"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pcapdump <file.pcap>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n++
		fmt.Printf("%10.6f  %s\n", rec.Ts.Seconds(), describe(rec))
	}
	fmt.Fprintf(os.Stderr, "%d frames\n", n)
}

// describe renders one captured frame, unwrapping tunnels.
func describe(rec pcap.Record) string {
	p, err := packet.Unmarshal(rec.Data)
	if err != nil {
		return fmt.Sprintf("[undecodable %d bytes: %v]", len(rec.Data), err)
	}
	prefix := ""
	if p.VLAN != nil {
		prefix = fmt.Sprintf("vlan %d ", p.VLAN.ID)
	}
	switch {
	case p.IP.Proto == packet.ProtoGRE:
		inner, tenant, derr := tunnel.GREDecap(p)
		if derr != nil {
			return fmt.Sprintf("%sGRE %s > %s [inner undecodable]", prefix, p.IP.Src, p.IP.Dst)
		}
		return fmt.Sprintf("%sGRE %s > %s tenant %d | %s", prefix, p.IP.Src, p.IP.Dst, tenant, line(inner, rec.OrigLen))
	case p.UDP != nil && p.UDP.DstPort == packet.VXLANPort:
		inner, tenant, derr := tunnel.VXLANDecap(p)
		if derr != nil {
			return fmt.Sprintf("%sVXLAN %s > %s [inner undecodable]", prefix, p.IP.Src, p.IP.Dst)
		}
		return fmt.Sprintf("%sVXLAN %s > %s vni %d | %s", prefix, p.IP.Src, p.IP.Dst, tenant, line(inner, rec.OrigLen))
	default:
		return prefix + line(p, rec.OrigLen)
	}
}

func line(p *packet.Packet, origLen int) string {
	switch {
	case p.TCP != nil:
		return fmt.Sprintf("%s.%d > %s.%d: Flags [%s], seq %d, ack %d, length %d",
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort,
			p.TCP.Flags, p.TCP.Seq, p.TCP.Ack, p.PayloadLen())
	case p.UDP != nil:
		return fmt.Sprintf("%s.%d > %s.%d: UDP, length %d",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, p.PayloadLen())
	default:
		return fmt.Sprintf("%s > %s: proto %d, length %d", p.IP.Src, p.IP.Dst, p.IP.Proto, p.PayloadLen())
	}
}
