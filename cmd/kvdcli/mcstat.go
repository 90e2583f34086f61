package main

import (
	"fmt"
	"io"
	"sort"

	"kvdirect/kvgw"
)

// runMcstat prints one tenant's STAT block from a kvgw memcache
// gateway: it authenticates as the tenant over SASL PLAIN and issues a
// binary STAT, so it sees exactly what that tenant's own memcache
// client would see — usage, quota rejections, hit counts — and nothing
// about its neighbors.
func runMcstat(out io.Writer, addr string, args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: kvdcli -mc host:port mcstat <tenant> [secret]")
	}
	tenant, secret := args[0], ""
	if len(args) == 2 {
		secret = args[1]
	}
	cl, err := kvgw.DialClient(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Auth(tenant, secret); err != nil {
		return fmt.Errorf("auth as %q: %w", tenant, err)
	}
	st, err := cl.Stats()
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%-20s %s\n", k, st[k])
	}
	return nil
}
