package workload

import (
	"time"

	"repro/internal/host"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Shuffle models a Hadoop MapReduce shuffle — the other disk-bound
// workload the paper evaluated ("we also evaluated disk-bound applications
// such as file transfer and Hadoop MapReduce, and found that FasTrak
// improved their overall throughput and reduced their finishing times",
// §6): every mapper VM transfers a partition to every reducer VM
// (all-to-all), reads paced by map-output disk rate, and the job finishes
// when the slowest reducer holds all its partitions — a partition-
// aggregate pattern at the transfer level.
type Shuffle struct {
	Mappers  []*host.VM
	Reducers []*host.VM
	// BasePort is the first reducer fetch port; reducer i listens on
	// BasePort+i.
	BasePort uint16
	// PartitionBytes is the map-output partition size per (mapper,
	// reducer) pair.
	PartitionBytes uint64
	// DiskBps paces each mapper's partition reads.
	DiskBps float64
	// ChunkSize is the transfer write size.
	ChunkSize int

	// FinishedAt is when the last partition completed (0 until done).
	FinishedAt time.Duration
	// Delivered counts shuffled payload bytes.
	Delivered uint64

	eng       *sim.Engine
	remaining int
	stopped   bool
}

// Start begins all transfers.
func (s *Shuffle) Start(eng *sim.Engine) {
	s.eng = eng
	if s.ChunkSize <= 0 {
		s.ChunkSize = 1448
	}
	if s.DiskBps <= 0 {
		s.DiskBps = 400e6
	}
	if s.PartitionBytes == 0 {
		s.PartitionBytes = 1 << 20
	}
	if s.BasePort == 0 {
		s.BasePort = 7100
	}
	// Per-reducer accounting: reducer i expects len(Mappers) partitions.
	type reducerState struct {
		got map[uint16]uint64 // mapper src port → bytes
	}
	s.remaining = len(s.Mappers) * len(s.Reducers)
	for ri, red := range s.Reducers {
		port := s.BasePort + uint16(ri)
		st := &reducerState{got: make(map[uint16]uint64)}
		red.BindApp(port, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			if s.stopped {
				return
			}
			src := p.TCP.SrcPort
			before := st.got[src]
			st.got[src] += uint64(p.PayloadLen())
			s.Delivered += uint64(p.PayloadLen())
			// Ack for the mapper's window-free pacing.
			vm.Send(p.IP.Src, port, src, 0, host.SendOptions{Seq: p.Meta.Seq}, nil)
			if before < s.PartitionBytes && st.got[src] >= s.PartitionBytes {
				s.remaining--
				if s.remaining == 0 && s.FinishedAt == 0 {
					s.FinishedAt = s.eng.Now()
					s.stopped = true
				}
			}
		}))
	}
	// Each mapper streams its partitions to all reducers, disk-paced
	// across the mapper's whole output (one spindle per mapper).
	for mi, m := range s.Mappers {
		srcPort := 46000 + uint16(mi)
		perChunk := time.Duration(float64(s.ChunkSize) * 8 / s.DiskBps * float64(time.Second))
		sent := make([]uint64, len(s.Reducers))
		next := 0
		m := m
		s.eng.Every(perChunk, func() {
			if s.stopped {
				return
			}
			// Round-robin across reducers that still need data.
			for tries := 0; tries < len(s.Reducers); tries++ {
				ri := next % len(s.Reducers)
				next++
				if sent[ri] >= s.PartitionBytes {
					continue
				}
				sent[ri] += uint64(s.ChunkSize)
				m.Send(s.Reducers[ri].Key.IP, srcPort, s.BasePort+uint16(ri), s.ChunkSize, host.SendOptions{}, nil)
				return
			}
		})
	}
}
