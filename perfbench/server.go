package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one dipserve child process, started with default settings
// apart from the listen address, the ledger directory and (traced pass
// only) the access log.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	pid     int
	stderr  *stderrLog
	done    chan struct{} // closed once the process has been waited for
	waitErr error
}

const bootTimeout = 90 * time.Second

// startServer execs bin and returns once it reports its listen address
// on stderr. dipserve opens and replays the ledger before it listens,
// so a returned server has finished its restart replay.
func startServer(bin, ledgerDir, accessLog string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-ledger-dir", ledgerDir}
	if accessLog != "" {
		args = append(args, "-accesslog", accessLog)
	}
	cmd := exec.Command(bin, args...)
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, stderr: &stderrLog{addr: make(chan string, 1)}, done: make(chan struct{})}
	cmd.Stderr = s.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s.pid = cmd.Process.Pid
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	select {
	case a := <-s.stderr.addr:
		s.base = "http://" + a
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("dipserve exited during boot: %v: %s", s.waitErr, s.stderr.tail())
	case <-time.After(bootTimeout):
		s.kill()
		return nil, fmt.Errorf("dipserve did not listen within %v: %s", bootTimeout, s.stderr.tail())
	}
}

// stderrLog receives the server's stderr: it forwards the listen
// address once and keeps the last lines for diagnostics.
type stderrLog struct {
	addr chan string // buffered; receives the address once

	mu    sync.Mutex
	part  []byte // an unfinished line
	lines []string
	sent  bool
}

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.part = append(l.part, p...)
	for {
		i := bytes.IndexByte(l.part, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(l.part[:i])
		l.part = l.part[i+1:]
		if a, ok := strings.CutPrefix(line, "dipserve: listening on "); ok && !l.sent {
			l.addr <- strings.TrimSpace(a)
			l.sent = true
		}
		l.lines = append(l.lines, line)
		if len(l.lines) > 20 {
			l.lines = l.lines[len(l.lines)-20:]
		}
	}
}

func (l *stderrLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, " | ")
}

// stop drains the server with SIGTERM (in-flight requests finish and
// the ledger seals its tail) and waits for it to exit; a clean drain
// exits 0.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, syscall.ESRCH) {
		s.kill()
		return err
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("dipserve did not drain within 30s")
	}
	var exit *exec.ExitError
	if errors.As(s.waitErr, &exit) {
		// dipserve prints its address before it installs its signal
		// handler, so a SIGTERM right after boot can end it by the
		// default action instead of a drain. It has served nothing to
		// drain then.
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if s.waitErr != nil {
		return fmt.Errorf("dipserve exit: %v: %s", s.waitErr, s.stderr.tail())
	}
	return nil
}

// kill ends the process without a drain and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}
