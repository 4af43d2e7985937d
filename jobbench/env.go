package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// envRecord is the environment a result was measured in. fsync cost,
// and so most of a job, depends on the state directory's filesystem.
type envRecord struct {
	nproc      int
	gomaxprocs int
	goVersion  string
	commit     string
	stateFS    string
}

func (e envRecord) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s state_fs=%s",
		e.nproc, e.gomaxprocs, e.goVersion, e.commit, e.stateFS)
}

func recordEnv(stateDir string) envRecord {
	return envRecord{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     commit(),
		stateFS:    fsType(stateDir),
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown (not built in a git checkout)"
	case dirty:
		return rev + "+dirty"
	}
	return rev
}

// fsType finds the filesystem type of the mount holding dir in
// /proc/self/mountinfo.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// id parent major:minor root mountpoint opts... - fstype source opts
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 1 {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, tail[0]
		}
	}
	return typ
}
