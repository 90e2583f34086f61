package main

import (
	"fmt"
	"log"

	"kvdirect/kvgw"
)

// startGateway serves the memcache binary protocol on addr, translating
// onto the given backend (the deployment, in-process). The tenant
// registry comes from the -tenants JSON file when given, otherwise it is
// open: a tenant per SASL identity, auto-created with no quota — the
// zero-config mode for local runs. sampleEvery makes the gateway root a
// distributed trace for one batch in N — the same -trace-sample knob
// that governs server-side sampling, so one flag turns tracing on
// everywhere.
func startGateway(addr, tenantsPath string, backend kvgw.Backend, sampleEvery uint64) (*kvgw.Gateway, error) {
	var reg *kvgw.Registry
	var err error
	mode := "auto-create"
	if tenantsPath == "" {
		reg, err = kvgw.NewRegistry(kvgw.RegistryConfig{AutoCreate: true}, nil)
	} else {
		mode = tenantsPath
		reg, err = kvgw.LoadRegistry(tenantsPath, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("tenant registry (%s): %w", mode, err)
	}
	gw, err := kvgw.Serve(backend, reg, addr, kvgw.Options{TraceSampleEvery: sampleEvery})
	if err != nil {
		return nil, fmt.Errorf("memcache gateway: %w", err)
	}
	log.Printf("kvdserver: memcache gateway on %s (tenants: %s)", gw.Addr(), mode)
	return gw, nil
}
