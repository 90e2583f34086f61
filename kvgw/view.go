package kvgw

import (
	"bytes"

	"kvdirect"
	"kvdirect/internal/wire"
)

// TenantView is a native-protocol window onto one tenant's namespace:
// the same Backend the gateway serves through, with every key prefixed
// on the way in and every scan bounded to the tenant's prefix on the
// way out. Admin tooling and the isolation tests use it to prove a
// tenant can be enumerated completely without ever observing a
// neighbor's keys.
type TenantView struct {
	backend Backend
	tenant  *Tenant
}

// View opens a native view of a tenant's namespace.
func View(backend Backend, tenant *Tenant) TenantView {
	return TenantView{backend: backend, tenant: tenant}
}

// ScanPage returns up to limit of the tenant's entries in key order
// starting at the first tenant key >= start, with a continuation cursor
// (nil when the tenant's namespace is exhausted). Keys come back with
// the tenant prefix stripped; values are raw stored bytes (decode with
// kvdirect.DecodeGwItem). The underlying scan is bounded at the
// namespace edge: a cursor that walks past the prefix ends the scan
// rather than leaking into the next tenant.
func (v TenantView) ScanPage(start []byte, limit int) ([]kvdirect.ScanEntry, []byte, error) {
	prefix := v.tenant.Prefix()
	op, err := kvdirect.ScanOp(v.tenant.Namespace(start), limit, nil)
	if err != nil {
		return nil, nil, err
	}
	res, _, err := v.backend.DoTrace([]kvdirect.Op{op}, wire.TraceContext{})
	if err != nil {
		return nil, nil, err
	}
	entries, cursor, err := kvdirect.DecodeScanResult(res[0])
	if err != nil {
		return nil, nil, err
	}
	out := make([]kvdirect.ScanEntry, 0, len(entries))
	for _, e := range entries {
		if !bytes.HasPrefix(e.Key, prefix) {
			// Walked off the namespace: everything at and past this key
			// belongs to other tenants, and the scan is over.
			return out, nil, nil
		}
		out = append(out, kvdirect.ScanEntry{Key: e.Key[len(prefix):], Value: e.Value})
	}
	if len(cursor) == 0 || !bytes.HasPrefix(cursor, prefix) {
		return out, nil, nil
	}
	return out, cursor[len(prefix):], nil
}

// Scan enumerates the tenant's whole namespace (paging internally).
func (v TenantView) Scan(start []byte, pageSize int) ([]kvdirect.ScanEntry, error) {
	var out []kvdirect.ScanEntry
	cursor := start
	for {
		page, next, err := v.ScanPage(cursor, pageSize)
		if err != nil {
			return nil, err
		}
		out = append(out, page...)
		if next == nil {
			return out, nil
		}
		cursor = next
	}
}
