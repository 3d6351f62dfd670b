package vswitch

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
)

// TestPlaneRateCapSurvivesEpochChurn offers a 1 Mbps VIF 100 Mbps of
// 1250-byte packets for one virtual second while another tenant's rule
// change publishes an epoch every millisecond. A shard's token buckets
// must outlive the epochs: a bucket rebuilt on each publish starts full,
// and a burst every millisecond is 90 Mbps through a 1 Mbps cap. What may
// pass is rate x time plus, per shard, one burst and the bounded backlog
// ReserveLimit admits.
func TestPlaneRateCapSurvivesEpochChurn(t *testing.T) {
	const (
		rateBps  = 1e6
		pktLen   = 1250
		interval = 100 * time.Microsecond // 1250 B every 100 us: 100 Mbps
		packets  = 10_000                 // one virtual second
		perEpoch = 10                     // a publish every millisecond
	)
	other := VMKey{Tenant: 4, IP: packet.MustParseIP("10.0.0.1")}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var clock atomic.Int64
			pl := NewShardedPlane(PlaneConfig{
				Shards: shards,
				Now:    func() time.Duration { return time.Duration(clock.Load()) },
			})
			defer pl.Close()
			pl.AttachVM(vmA, nil)
			pl.AttachVM(other, nil)
			pl.SetVIFLimit(vmA, rateBps)

			// 64 flows, so every shard of four carries some of the load.
			pkts := make([]*packet.Packet, 64)
			for i := range pkts {
				pkts[i] = packet.NewTCP(vmA.Tenant, vmA.IP, packet.MustParseIP("10.0.9.9"), uint16(40000+i), 80,
					pktLen-packet.EthernetHeaderLen-packet.IPv4HeaderLen-packet.TCPHeaderLen)
			}
			inj := pl.NewInjector()
			for i := 0; i < packets; i++ {
				clock.Store(int64(time.Duration(i) * interval))
				inj.Egress(vmA, pkts[i%len(pkts)])
				if i%perEpoch == perEpoch-1 {
					inj.Flush()
					pl.Barrier()
					pl.Invalidate(rules.Pattern{Tenant: other.Tenant})
				}
			}
			c := pl.Counters()
			if c.Tx+c.Drops.Shape != packets || c.EpochFlushes == 0 {
				t.Fatalf("counters %+v: want %d packets sent or shaped, across epoch flushes", c, packets)
			}

			share := rateBps / float64(shards)
			burstBits := max(share/1000, 4*1500*8) // makeBucket's htb burst
			allowance := float64(shards) * (burstBits + share*maxShapeDelay.Seconds()) / 8
			elapsed := (packets * interval).Seconds()
			limit := rateBps/8*elapsed + allowance
			sent := float64(c.Tx) * pktLen
			if sent > limit {
				t.Fatalf("sent %.0f bytes (%.1f Mbps) through a %.0f Mbps cap; at most %.0f allowed",
					sent, sent*8/elapsed/1e6, rateBps/1e6, limit)
			}
			if sent < 0.9*rateBps/8*elapsed {
				t.Fatalf("sent %.0f bytes, under 90%% of what the cap allows: the shaper over-enforces", sent)
			}
		})
	}
}
