package main

import (
	"syscall"
	"time"
	"unsafe"
)

// CPU clocks (Linux clock IDs). On a shared virtual machine a wall
// clock also counts the time the hypervisor runs other guests (steal),
// which on a shared 2-vCPU host came and went at up to a third of the
// host's time; CPU time leaves it out. The closed loop and the set-ups
// are CPU-bound, so they are timed on these clocks.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling OS thread
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time every thread of the process has used.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time of the calling OS thread; the caller locks
// its goroutine to the thread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
