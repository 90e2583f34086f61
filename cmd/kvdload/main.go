// Command kvdload drives a KV-Direct server with the standard YCSB core
// workloads over TCP and reports client-observed throughput and latency
// percentiles — the software stand-in for the paper's FPGA-based packet
// generator (§5.2.1).
//
// Usage:
//
//	kvdload [-addr host:port[,host:port...]] [-workload A|B|C|D|E|F]
//	        [-keys n] [-ops n] [-keysize n] [-valsize n] [-batch n]
//	        [-clients n] [-seed n] [-selfserve] [-record oplog.bin]
//	        [-replay oplog.bin]
//
// -addr is the server's shard list, one address per shard in shard
// order (kvdserver -shards n logs it); keys route by the deployment's
// placement rule, so one address is simply a one-shard list. With
// -selfserve it launches an in-process 1 × 1 deployment instead, so a
// single command demonstrates the whole stack. -record captures every
// batch the run phase sends into a replayable op-log; -replay streams a
// captured op-log back at the server instead of generating fresh load.
//
// With -memcache it instead drives a kvgw memcache-binary gateway at
// -addr as a Zipf-skewed fleet of -mctenants tenants (quiet-pipelined
// GET/SET batches over SASL-authenticated connections); -selfserve
// launches the gateway in-process, on the same deployment, with an
// auto-create registry.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/stats"
	"kvdirect/internal/workload"
	"kvdirect/kvgw"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// recorder, when set, captures every batch the run phase sends (guarded
// by recordMu; multiple client goroutines share it).
var (
	recorder *kvdirect.OpLogWriter
	recordMu sync.Mutex
)

// recordBatch appends ops to the op-log if recording is on.
func recordBatch(ops []kvdirect.Op) {
	if recorder == nil {
		return
	}
	recordMu.Lock()
	defer recordMu.Unlock()
	if err := recorder.Record(ops); err != nil {
		log.Printf("kvdload: op-log record: %v", err)
	}
}

// replayOpLog streams a recorded op-log to the server batch by batch.
func replayOpLog(addrs []string, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cl, err := kvnet.DialShards(addrs)
	if err != nil {
		return err
	}
	defer cl.Close()
	start := time.Now()
	failed := 0
	batches, ops, err := kvdirect.ReplayFunc(f, func(batch []kvdirect.Op) error {
		res, err := cl.Do(batch)
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Status == kvdirect.StatusError {
				failed++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	el := time.Since(start)
	fmt.Printf("replayed %d batches / %d ops in %.2fs (%.0f ops/s), %d failed\n",
		batches, ops, el.Seconds(), float64(ops)/el.Seconds(), failed)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7890", "server address: comma-separated, one per shard in shard order")
	wl := flag.String("workload", "B", "YCSB workload letter (A-F)")
	keys := flag.Uint64("keys", 100000, "pre-loaded key count")
	ops := flag.Int("ops", 200000, "operations to run")
	keySize := flag.Int("keysize", 10, "key size in bytes")
	valSize := flag.Int("valsize", 16, "value size in bytes")
	batch := flag.Int("batch", 32, "ops per packet (client-side batching)")
	clients := flag.Int("clients", 4, "concurrent client connections")
	seed := flag.Int64("seed", 1, "workload seed")
	selfServe := flag.Bool("selfserve", false, "launch an in-process server")
	record := flag.String("record", "", "record every batch to an op-log file")
	replay := flag.String("replay", "", "replay a recorded op-log instead of generating load")
	mcMode := flag.Bool("memcache", false, "drive a kvgw memcache gateway at -addr as a multi-tenant fleet")
	mcTenants := flag.Int("mctenants", 1000, "memcache mode: tenant count (zipf-skewed popularity)")
	mcKeys := flag.Int("mckeys", 1000, "memcache mode: keys per tenant")
	flag.Parse()

	addrs := strings.Split(*addr, ",")
	if *selfServe {
		d, err := kvrepl.Deploy("127.0.0.1:0", 1, 1, 0, kvdirect.Config{MemoryBytes: 256 << 20}, kvrepl.Options{})
		if err != nil {
			log.Fatalf("kvdload: %v", err)
		}
		defer d.Close()
		addrs = []string{d.Routes()[0].Primary}
		log.Printf("kvdload: in-process server on %s", addrs[0])
		if *mcMode {
			reg, err := kvgw.NewRegistry(kvgw.RegistryConfig{AutoCreate: true}, nil)
			if err != nil {
				log.Fatalf("kvdload: %v", err)
			}
			gw, err := kvgw.Serve(d, reg, "127.0.0.1:0", kvgw.Options{})
			if err != nil {
				log.Fatalf("kvdload: %v", err)
			}
			defer gw.Close()
			addrs = []string{gw.Addr()}
			log.Printf("kvdload: in-process memcache gateway on %s", addrs[0])
		}
	}
	if *mcMode {
		runMemcacheFleet(addrs[0], *mcTenants, *ops, *mcKeys, *valSize, *batch, *clients, *seed)
		return
	}

	preset, err := parsePreset(*wl)
	if err != nil {
		log.Fatalf("kvdload: %v", err)
	}

	if *replay != "" {
		if err := replayOpLog(addrs, *replay); err != nil {
			log.Fatalf("kvdload: replay: %v", err)
		}
		return
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatalf("kvdload: record: %v", err)
		}
		defer f.Close()
		recorder = kvdirect.NewOpLogWriter(f)
		defer recorder.Flush()
	}

	gen := workload.New(workload.Config{
		Keys: *keys, KeySize: *keySize, ValSize: *valSize, Seed: *seed,
	})

	// Load phase.
	log.Printf("kvdload: loading %d keys (%d B keys, %d B values)...", *keys, *keySize, *valSize)
	loadStart := time.Now()
	if err := loadKeys(addrs, gen, *keys, *keySize, *batch, *clients); err != nil {
		log.Fatalf("kvdload: load: %v", err)
	}
	log.Printf("kvdload: loaded in %.1fs", time.Since(loadStart).Seconds())

	// Run phase.
	log.Printf("kvdload: running %s, %d ops, batch %d, %d clients",
		preset, *ops, *batch, *clients)
	total, elapsed, lat, errs := run(addrs, preset, *keys, *ops, *keySize, *valSize, *batch, *clients, *seed)
	if errs > 0 {
		log.Printf("kvdload: %d operation errors", errs)
	}

	opsPerSec := float64(total) / elapsed.Seconds()
	fmt.Printf("\nworkload  : %s\n", preset)
	fmt.Printf("ops       : %d in %.2fs = %.0f ops/s over TCP (%d clients)\n",
		total, elapsed.Seconds(), opsPerSec, *clients)
	fmt.Printf("batch RTT : P50 %.0f us  P95 %.0f us  P99 %.0f us\n",
		lat.Percentile(50)/1000, lat.Percentile(95)/1000, lat.Percentile(99)/1000)
}

func parsePreset(s string) (workload.Preset, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "A":
		return workload.YCSBA, nil
	case "B":
		return workload.YCSBB, nil
	case "C":
		return workload.YCSBC, nil
	case "D":
		return workload.YCSBD, nil
	case "E":
		return workload.YCSBE, nil
	case "F":
		return workload.YCSBF, nil
	}
	return 0, fmt.Errorf("unknown workload %q (want A-F)", s)
}

func loadKeys(addrs []string, gen *workload.Generator, keys uint64, keySize, batch, clients int) error {
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	per := keys / uint64(clients)
	for c := 0; c < clients; c++ {
		lo := uint64(c) * per
		hi := lo + per
		if c == clients-1 {
			hi = keys
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			cl, err := kvnet.DialShards(addrs)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			b := cl.NewBatcher(batch)
			for id := lo; id < hi; id++ {
				op := kvdirect.Op{Code: kvdirect.OpPut,
					Key:   gen.KeyBytes(id)[:keySize],
					Value: gen.ValueBytes(id, 0)}
				if err := b.Submit(op, nil); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- b.Flush()
		}(lo, hi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}

func run(addrs []string, preset workload.Preset, keys uint64, totalOps, keySize, valSize, batch, clients int, seed int64) (int, time.Duration, *stats.Sample, int) {
	var wg sync.WaitGroup
	latCh := make(chan []float64, clients)
	errCh := make(chan int, clients)
	doneCh := make(chan int, clients)
	perClient := totalOps / clients
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats, done, errs := clientRun(addrs, preset, keys, perClient, keySize, valSize, batch, seed+int64(c))
			latCh <- lats
			doneCh <- done
			errCh <- errs
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(latCh)
	close(errCh)
	close(doneCh)
	lat := stats.NewSample(totalOps / batch)
	for ls := range latCh {
		for _, l := range ls {
			lat.Add(l)
		}
	}
	total, errs := 0, 0
	for d := range doneCh {
		total += d
	}
	for e := range errCh {
		errs += e
	}
	return total, elapsed, lat, errs
}

func clientRun(addrs []string, preset workload.Preset, keys uint64, ops, keySize, valSize, batch int, seed int64) (lats []float64, done, errs int) {
	cl, err := kvnet.DialShards(addrs)
	if err != nil {
		log.Printf("kvdload: client: %v", err)
		return nil, 0, ops
	}
	defer cl.Close()
	pg := workload.NewPreset(preset, keys, workload.Config{
		KeySize: keySize, ValSize: valSize, Seed: seed,
	})
	gen := pg.Generator()
	var pending []kvdirect.Op
	version := uint64(0)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		recordBatch(pending)
		t0 := time.Now()
		res, err := cl.Do(pending)
		if err != nil {
			errs += len(pending)
			pending = pending[:0]
			return
		}
		lats = append(lats, float64(time.Since(t0).Nanoseconds()))
		for _, r := range res {
			if r.Status == kvdirect.StatusError {
				errs++
			} else {
				done++
			}
		}
		pending = pending[:0]
	}
	for i := 0; i < ops; i++ {
		op := pg.Next()
		key := gen.KeyBytes(op.KeyID)[:keySize]
		version++
		switch op.Kind {
		case workload.Get:
			pending = append(pending, kvdirect.Op{Code: kvdirect.OpGet, Key: key})
		case workload.Put, workload.Insert:
			pending = append(pending, kvdirect.Op{Code: kvdirect.OpPut, Key: key,
				Value: gen.ValueBytes(op.KeyID, version)})
		case workload.RMW:
			// Atomic read-modify-write in the NIC: an 8-byte fetch-add
			// when values permit, else GET+PUT in one (serialized) batch.
			if valSize == 8 {
				p := make([]byte, 8)
				binary.LittleEndian.PutUint64(p, 1)
				pending = append(pending, kvdirect.Op{Code: kvdirect.OpUpdateScalar,
					Key: key, FuncID: kvdirect.FnAdd, ElemWidth: 8, Param: p})
			} else {
				pending = append(pending,
					kvdirect.Op{Code: kvdirect.OpGet, Key: key},
					kvdirect.Op{Code: kvdirect.OpPut, Key: key,
						Value: gen.ValueBytes(op.KeyID, version)})
			}
		case workload.Scan:
			// Real ordered range: one SCAN op over the ordered secondary
			// index of the shard that owns the drawn start key.
			sop, serr := kvdirect.ScanOp(key, op.ScanLen, nil)
			if serr != nil {
				errs++
				continue
			}
			pending = append(pending, sop)
		}
		if len(pending) >= batch {
			flush()
		}
	}
	flush()
	return lats, done, errs
}
