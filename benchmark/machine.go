package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// machine says what produced a result file. Two files are compared only if
// everything but the git revision agrees.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
	GitRev     string `json:"git_rev"`
	// TempFS is the filesystem under the per-run directories, where meterd
	// writes its chain files and session journal.
	TempFS string `json:"temp_fs"`
	// Transport is always the host loopback: generator and daemon share the
	// machine, and no link rate or wire latency is measured.
	Transport string `json:"transport"`
}

func describeMachine(outDir string) machine {
	m := machine{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     "unknown",
		GitRev:     "unknown",
		TempFS:     "unknown",
		Transport:  "loopback",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				m.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout need not be a git repository.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.GitRev = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(outDir, &st); err == nil {
		m.TempFS = fsName(int64(st.Type))
	}
	return m
}

func fsName(magic int64) string {
	switch magic {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// sameMachine reports the first field in which two machine blocks differ,
// the git revision aside.
func sameMachine(a, b machine) (ok bool, field string) {
	a.GitRev, b.GitRev = "", ""
	switch {
	case a.CPUModel != b.CPUModel:
		return false, "cpu_model"
	case a.NumCPU != b.NumCPU:
		return false, "nproc"
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return false, "gomaxprocs"
	case a.GoVersion != b.GoVersion:
		return false, "go_version"
	case a.GOOS != b.GOOS || a.GOARCH != b.GOARCH:
		return false, "goos/goarch"
	case a.Kernel != b.Kernel:
		return false, "kernel"
	case a.TempFS != b.TempFS:
		return false, "temp_fs"
	case a.Transport != b.Transport:
		return false, "transport"
	}
	return true, ""
}
