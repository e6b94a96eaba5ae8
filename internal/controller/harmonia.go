package controller

import "repro/internal/netsim"

// enableHarmonia attaches the configured dirty-set stage to the metadata
// service (EnableStages): the current replica set of every partition is
// installed immediately (fenced under this instance's writer
// generation), and installPartition re-installs — flushing the dirty
// set — on every subsequent membership event.
//
// Unlike the switch cache, no dirty-set state is replicated to the
// coordination store: the dirty set is soft state whose loss is safe by
// construction. A takeover re-installs every view under the new
// generation, which flushes resident entries to sticky (primary-only
// until re-certified by a new-view commit), so a read can never be
// routed on the strength of a dead controller's installs.
func (svc *Service) enableHarmonia() {
	svc.harmonia = svc.cfg.Harmonia
	for p := range svc.views {
		svc.installHarmonia(p)
	}
}

// installHarmonia pushes one partition's read-serving replica set to the
// dirty-set stage: every proper replica (primary first), excluding a
// handoff stand-in — it serves through its directory plus forwarding,
// not from a full copy — and excluding recovering nodes, which are not
// get-visible. The install applies switch-side after the control delay,
// fenced by the writer generation, and a newer (gen, epoch) flushes the
// partition's resident dirty entries.
func (svc *Service) installHarmonia(p int) {
	if svc.harmonia == nil {
		return
	}
	v := svc.views[p]
	if v == nil {
		return
	}
	replicas := make([]netsim.IP, 0, len(v.Replicas))
	for _, r := range v.Replicas {
		if v.Handoff != nil && r.Index == v.Handoff.Index {
			continue
		}
		replicas = append(replicas, r.IP)
	}
	svc.harmonia.InstallViewAs(svc.gen, p, v.Epoch, replicas)
}
