package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"
)

// migrationStatus mirrors kvrepl.MigrationStatus's JSON shape (the CLI
// talks HTTP to the admin endpoint; it does not link the server state).
type migrationStatus struct {
	Shard         int    `json:"shard"`
	State         string `json:"state"`
	Epoch         uint64 `json:"epoch"`
	CutoverEpoch  uint64 `json:"cutover_epoch"`
	SourceSeq     uint64 `json:"source_seq"`
	DestSeq       uint64 `json:"dest_seq"`
	SnapshotBytes uint64 `json:"snapshot_bytes"`
	Entries       uint64 `json:"entries"`
	Resyncs       uint64 `json:"resyncs"`
	DurationNs    int64  `json:"duration_ns"`
	Error         string `json:"error"`
}

// runMigrate drives the kvdserver admin endpoint:
//
//	kvdcli migrate <shard>   trigger a live migration and watch it finish
//	kvdcli migrate status    list all migrations (running and terminal)
//	kvdcli migrate routes    print the current shard routing table
func runMigrate(out io.Writer, admin string, args []string) error {
	if admin == "" {
		return fmt.Errorf("migrate needs -admin host:port (the kvdserver -admin address)")
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: migrate <shard>|status|routes")
	}
	base := "http://" + admin
	switch args[0] {
	case "status":
		var migs []migrationStatus
		if err := getJSON(base+"/migrations", &migs); err != nil {
			return err
		}
		if len(migs) == 0 {
			fmt.Fprintln(out, "(no migrations)")
			return nil
		}
		printMigrations(out, migs)
		return nil

	case "routes":
		var routes map[string]struct {
			Primary string   `json:"primary"`
			Backups []string `json:"backups"`
		}
		if err := getJSON(base+"/routes", &routes); err != nil {
			return err
		}
		shards := make([]string, 0, len(routes))
		for s := range routes {
			shards = append(shards, s)
		}
		sort.Strings(shards)
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "shard\tprimary\tbackups")
		for _, s := range shards {
			fmt.Fprintf(w, "%s\t%s\t%v\n", s, routes[s].Primary, routes[s].Backups)
		}
		return w.Flush()

	default:
		shard, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("usage: migrate <shard>|status|routes")
		}
		resp, err := http.Post(fmt.Sprintf("%s/migrate?shard=%d", base, shard), "", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var msg [512]byte
			n, _ := resp.Body.Read(msg[:])
			return fmt.Errorf("migrate: %s: %s", resp.Status, msg[:n])
		}
		var st migrationStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return err
		}
		fmt.Fprintf(out, "shard %d: migration started (epoch %d)\n", st.Shard, st.Epoch)
		return watchMigration(out, base, shard)
	}
}

// watchMigration polls /migrations until the shard's migration reaches
// a terminal state, printing progress transitions.
func watchMigration(out io.Writer, base string, shard int) error {
	lastLine := ""
	deadline := time.Now().Add(5 * time.Minute)
	for {
		var migs []migrationStatus
		if err := getJSON(base+"/migrations", &migs); err != nil {
			return err
		}
		for _, st := range migs {
			if st.Shard != shard {
				continue
			}
			line := fmt.Sprintf("shard %d: %s  seq %d/%d  snapshot %d B  entries %d  resyncs %d",
				st.Shard, st.State, st.DestSeq, st.SourceSeq, st.SnapshotBytes, st.Entries, st.Resyncs)
			if line != lastLine {
				fmt.Fprintln(out, line)
				lastLine = line
			}
			switch st.State {
			case "done":
				fmt.Fprintf(out, "shard %d: migrated in %s\n", shard, time.Duration(st.DurationNs))
				return nil
			case "aborted":
				return fmt.Errorf("migration aborted: %s", st.Error)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for shard %d migration", shard)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func printMigrations(out io.Writer, migs []migrationStatus) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "shard\tstate\tepoch\tseq\tsnapshot\tentries\tresyncs\tduration\terror")
	for _, st := range migs {
		fmt.Fprintf(w, "%d\t%s\t%d->%d\t%d/%d\t%d B\t%d\t%d\t%s\t%s\n",
			st.Shard, st.State, st.Epoch, st.CutoverEpoch, st.DestSeq, st.SourceSeq,
			st.SnapshotBytes, st.Entries, st.Resyncs, time.Duration(st.DurationNs), st.Error)
	}
	_ = w.Flush() //lint:allow statuserr -- CLI stdout flush; a write error has nowhere to go
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
