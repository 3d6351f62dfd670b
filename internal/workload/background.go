package workload

import (
	"time"

	"repro/internal/host"
	"repro/internal/packet"
	"repro/internal/sim"
)

// FileTransfer is an scp-like disk-bound transfer: a sender paces
// MSS-sized messages at DiskBps (the disk, not the network, is the
// bottleneck — §6.1.2's "4GB file transfer which is disk bound"), the
// receiver acknowledges, and the run ends when TotalBytes have been
// delivered.
type FileTransfer struct {
	Sender, Receiver *host.VM
	Port             uint16
	// DiskBps is the disk read rate bounding the transfer.
	DiskBps float64
	// ChunkSize is the application write size (default MSS-like 1448).
	ChunkSize int
	// TotalBytes ends the transfer when delivered (0 = run forever).
	TotalBytes uint64

	// Delivered counts received payload bytes.
	Delivered uint64
	// FinishedAt is when the last byte arrived (0 until done).
	FinishedAt time.Duration

	eng     *sim.Engine
	stopped bool
	srcPort uint16
}

// Start begins the transfer.
func (f *FileTransfer) Start(eng *sim.Engine) {
	f.eng = eng
	if f.DiskBps <= 0 {
		f.DiskBps = 400e6 // a 2013-era SATA disk streaming read
	}
	if f.ChunkSize <= 0 {
		f.ChunkSize = 1448
	}
	f.srcPort = 44000
	f.Receiver.BindApp(f.Port, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		if f.stopped {
			return
		}
		f.Delivered += uint64(p.PayloadLen())
		vm.Send(p.IP.Src, f.Port, p.TCP.SrcPort, 0, host.SendOptions{Seq: p.Meta.Seq}, nil)
		if f.TotalBytes > 0 && f.Delivered >= f.TotalBytes && f.FinishedAt == 0 {
			f.FinishedAt = eng.Now()
			f.stopped = true
		}
	}))
	// Disk pacing: one chunk per chunk-time at DiskBps.
	period := time.Duration(float64(f.ChunkSize) * 8 / f.DiskBps * float64(time.Second))
	eng.Every(period, func() {
		if f.stopped {
			return
		}
		f.Sender.Send(f.Receiver.Key.IP, f.srcPort, f.Port, f.ChunkSize, host.SendOptions{}, nil)
	})
}

// Rate returns the paced packets-per-second of the transfer — the ~135
// pps signal the FasTrak ME sees for scp in §6.2.1.
func (f *FileTransfer) Rate() float64 {
	return f.DiskBps / 8 / float64(f.ChunkSize)
}

// IOZone models the IOzone filesystem benchmark (§6.1.1): sustained
// disk-bound activity that burns VM CPU in bursts (buffer cache churn)
// without network traffic.
type IOZone struct {
	VM *host.VM
	// Utilization is the fraction of one vCPU consumed (IOzone is
	// I/O-bound: default 0.4).
	Utilization float64
}

// Start begins the load.
func (z *IOZone) Start(eng *sim.Engine) {
	if z.Utilization <= 0 || z.Utilization > 1 {
		z.Utilization = 0.4
	}
	const round = time.Millisecond
	busy := time.Duration(float64(round) * z.Utilization)
	eng.Every(round, func() { z.VM.CPU.Submit(busy, nil) })
}
