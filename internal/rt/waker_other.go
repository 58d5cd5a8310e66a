//go:build !linux

package rt

import (
	"errors"
	"os"
	"time"
)

// openTimerFD reports that this platform has no timer descriptor, so the
// waker falls back to a time.Timer.
func openTimerFD() (*os.File, int, error) { return nil, 0, errors.ErrUnsupported }

func setTimerFD(int, time.Duration) {}
