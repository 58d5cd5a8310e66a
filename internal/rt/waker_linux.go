//go:build linux

package rt

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock time.Since reads

// openTimerFD creates a non-blocking timerfd and hands it to the runtime
// poller.
func openTimerFD() (*os.File, int, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, 0, errno
	}
	return os.NewFile(fd, "timerfd"), int(fd), nil
}

// setTimerFD arms fd to expire once, d from now; d <= 0 disarms it.
func setTimerFD(fd int, d time.Duration) {
	var spec struct{ interval, value syscall.Timespec }
	if d > 0 {
		spec.value = syscall.NsecToTimespec(int64(d))
	}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		// fd is open and spec well-formed while the loop runs; only a bug
		// reaches here, and a loop that silently never wakes would hang.
		panic(fmt.Sprintf("rt: timerfd_settime: %v", errno))
	}
}
