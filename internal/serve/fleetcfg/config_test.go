package fleetcfg

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/tenant"
)

// baseLocal is a valid local-mode config exercising both hosted
// shapes: a directly addressable pool (the unreferenced mini-vgg) and
// an SLO-routed endpoint over a referenced full-size model.
func baseLocal() *Config {
	r, b, q := 2, 4, 64
	return &Config{
		Server: &Server{Seed: 7},
		Pool:   &Pool{Replicas: &r, Batch: &b, Delay: Duration(2 * time.Millisecond), QueueCap: &q},
		Models: []Model{
			{Name: "base", Kind: "resnet18"},
			{Kind: "mini-vgg"},
		},
		Endpoints: []Endpoint{
			{Name: "resnet", Model: "base", Variants: []string{"plain", "weight-pruning"}},
		},
		Load: &Load{Targets: []string{"resnet"}, Clients: 4, Requests: 64, SLO: &SLO{MinAccuracy: 90}},
	}
}

// baseCluster is a valid cluster-load-generator config.
func baseCluster() *Config {
	return &Config{
		Cluster: &Cluster{Members: []string{"127.0.0.1:18081", "127.0.0.1:18082"}},
		Load:    &Load{Targets: []string{"mini-vgg/plain"}, Clients: 4, Requests: 64},
	}
}

// baseConnect is a valid remote load generator driving one pipelined
// DLW2 session per target with a weighted two-tenant mix.
func baseConnect() *Config {
	return &Config{Load: &Load{
		Connect: "dlw2://127.0.0.1:18091", Targets: []string{"mini-vgg/plain"}, Requests: 600, Pipeline: 32,
		Tenants: []LoadTenant{{Name: "t0", Weight: 10}, {Name: "t1", Weight: 1}},
	}}
}

// TestConfigValidate proves every rejection class: each row mutates a
// valid base config into exactly one failure and asserts the typed
// error names the offending field path — so a config mistake in a
// large fleet file always points at its own line.
func TestConfigValidate(t *testing.T) {
	intp := func(v int) *int { return &v }
	tests := []struct {
		name     string
		base     func() *Config
		mutate   func(c *Config)
		wantPath string
	}{
		{"duplicate model name", baseLocal, func(c *Config) {
			c.Models[1] = Model{Name: "base", Kind: "mini-vgg"}
		}, "models[1].name"},
		{"duplicate derived routing name", baseLocal, func(c *Config) {
			c.Models = append(c.Models, Model{Kind: "mini-vgg"})
		}, "models[2].name"},
		{"missing model kind", baseLocal, func(c *Config) {
			c.Models[1].Kind = ""
		}, "models[1].kind"},
		{"unknown model kind", baseLocal, func(c *Config) {
			c.Models[1].Kind = "alexnet"
		}, "models[1].kind"},
		{"unknown technique", baseLocal, func(c *Config) {
			c.Models[1].Technique = "fp4"
		}, "models[1].technique"},
		{"negative threads", baseLocal, func(c *Config) {
			c.Models[1].Threads = -1
		}, "models[1].threads"},
		{"threads above platform max", baseLocal, func(c *Config) {
			c.Models[1].Threads = 9 // odroid-xu4 tops out at 8
		}, "models[1].threads"},
		{"unknown platform", baseLocal, func(c *Config) {
			c.Models[1].Platform = "rpi4"
		}, "models[1].platform"},
		{"operating point out of range", baseLocal, func(c *Config) {
			c.Models[1].Point = &OperatingPoint{Sparsity: 1.5}
		}, "models[1].point.sparsity"},
		{"non-plain pool model without curve data", baseLocal, func(c *Config) {
			c.Models[1].Technique = "weight-pruning" // mini-vgg has no Table III
		}, "models[1].point"},

		{"duplicate endpoint name", baseLocal, func(c *Config) {
			c.Endpoints = append(c.Endpoints, Endpoint{Name: "resnet", Model: "base", Variants: []string{"plain"}})
		}, "endpoints[1].name"},
		{"endpoint name collides with pool", baseLocal, func(c *Config) {
			c.Endpoints[0].Name = "mini-vgg/plain"
		}, "endpoints[0].name"},
		{"missing endpoint name", baseLocal, func(c *Config) {
			c.Endpoints[0].Name = ""
		}, "endpoints[0].name"},
		{"unknown endpoint model", baseLocal, func(c *Config) {
			c.Endpoints[0].Model = "nope"
		}, "endpoints[0].model"},
		{"empty variants", baseLocal, func(c *Config) {
			c.Endpoints[0].Variants = nil
		}, "endpoints[0].variants"},
		{"unknown variant technique", baseLocal, func(c *Config) {
			c.Endpoints[0].Variants[1] = "fp4"
		}, "endpoints[0].variants[1]"},
		{"duplicate variant", baseLocal, func(c *Config) {
			c.Endpoints[0].Variants = []string{"plain", "none"}
		}, "endpoints[0].variants[1]"},
		{"unknown points table", baseLocal, func(c *Config) {
			c.Endpoints[0].Points = "table9"
		}, "endpoints[0].points"},
		{"table5 without curve data", baseLocal, func(c *Config) {
			c.Models = append(c.Models, Model{Name: "mb", Kind: "mini-resnet"})
			c.Endpoints = append(c.Endpoints, Endpoint{Name: "mini-ep", Model: "mb", Variants: []string{"plain"}, Points: "table5"})
		}, "endpoints[1].points"},
		{"endpoint queue cap below one", baseLocal, func(c *Config) {
			c.Endpoints[0].QueueCap = intp(0)
		}, "endpoints[0].queueCap"},
		{"endpoint queue cap below batch", baseLocal, func(c *Config) {
			c.Endpoints[0].QueueCap = intp(2) // batch is 4
		}, "endpoints[0].queueCap"},

		{"zero replicas", baseLocal, func(c *Config) {
			c.Pool.Replicas = intp(0)
		}, "pool.replicas"},
		{"zero batch", baseLocal, func(c *Config) {
			c.Pool.Batch = intp(0)
			c.Pool.QueueCap = nil // keep the queue cap row out of this one
		}, "pool.batch"},
		{"negative delay", baseLocal, func(c *Config) {
			c.Pool.Delay = Duration(-time.Millisecond)
		}, "pool.delay"},
		{"queue cap below one", baseLocal, func(c *Config) {
			c.Pool.QueueCap = intp(0)
		}, "pool.queueCap"},
		{"queue cap below batch", baseLocal, func(c *Config) {
			c.Pool.QueueCap = intp(3) // batch is 4
		}, "pool.queueCap"},

		{"bad listen address", baseLocal, func(c *Config) {
			c.Server.Listen = "no-port"
			c.Load = nil // pure server role
		}, "server.listen"},
		{"listen port out of range", baseLocal, func(c *Config) {
			c.Server.Listen = ":99999"
			c.Load = nil
		}, "server.listen"},
		{"memlimit below -1", baseLocal, func(c *Config) {
			c.Server.MemLimitMB = -2
		}, "server.memLimitMB"},
		{"bad mux listen address", baseLocal, func(c *Config) {
			c.Server.MuxListen = "no-port"
			c.Load = nil
		}, "server.muxListen"},
		{"mux listen equals listen", baseLocal, func(c *Config) {
			c.Server.Listen = ":8080"
			c.Server.MuxListen = ":8080"
			c.Load = nil
		}, "server.muxListen"},

		{"listen with load section", baseLocal, func(c *Config) {
			c.Server.Listen = ":8080"
		}, "load"},
		{"listen plus connect", baseLocal, func(c *Config) {
			c.Server.Listen = ":8080"
			c.Load.Connect = "host:8080"
		}, "load.connect"},
		{"cluster plus listen", baseCluster, func(c *Config) {
			c.Server = &Server{Listen: ":8080"}
		}, "server.listen"},
		{"cluster plus connect", baseCluster, func(c *Config) {
			c.Load.Connect = "host:8080"
		}, "load.connect"},
		{"cluster with hosted models", baseCluster, func(c *Config) {
			c.Models = []Model{{Kind: "mini-vgg"}}
		}, "models"},
		{"cluster without targets", baseCluster, func(c *Config) {
			c.Load.Targets = nil
		}, "load.targets"},
		{"nothing to serve", baseLocal, func(c *Config) {
			c.Models, c.Endpoints = nil, nil
		}, "models"},

		{"no cluster members", baseCluster, func(c *Config) {
			c.Cluster.Members = nil
		}, "cluster.members"},
		{"member without host", baseCluster, func(c *Config) {
			c.Cluster.Members[0] = ":18081"
		}, "cluster.members[0]"},
		{"member bad port", baseCluster, func(c *Config) {
			c.Cluster.Members[0] = "127.0.0.1:http"
		}, "cluster.members[0]"},
		{"member unknown scheme", baseCluster, func(c *Config) {
			c.Cluster.Members[0] = "grpc://127.0.0.1:18081"
		}, "cluster.members[0]"},
		{"duplicate member", baseCluster, func(c *Config) {
			c.Cluster.Members[1] = c.Cluster.Members[0]
		}, "cluster.members[1]"},
		{"negative probe interval", baseCluster, func(c *Config) {
			c.Cluster.ProbeInterval = Duration(-time.Second)
		}, "cluster.probeInterval"},

		{"bad connect address", func() *Config {
			return &Config{Load: &Load{Connect: "127.0.0.1:8080", Targets: []string{"x"}}}
		}, func(c *Config) {
			c.Load.Connect = "no-port"
		}, "load.connect"},
		{"connect unknown scheme", func() *Config {
			return &Config{Load: &Load{Connect: "dlw2://127.0.0.1:8080", Targets: []string{"x"}}}
		}, func(c *Config) {
			c.Load.Connect = "ftp://127.0.0.1:8080"
		}, "load.connect"},
		{"negative clients", baseLocal, func(c *Config) {
			c.Load.Clients = -1
		}, "load.clients"},
		{"negative requests", baseLocal, func(c *Config) {
			c.Load.Requests = -1
		}, "load.requests"},
		{"negative pipeline", baseConnect, func(c *Config) {
			c.Load.Pipeline = -1
		}, "load.pipeline"},
		{"oversized load tenant name", baseConnect, func(c *Config) {
			c.Load.Tenants[0].Name = strings.Repeat("a", tenant.MaxIDLen+1)
		}, "load.tenants[0].name"},
		{"control character in load tenant name", baseConnect, func(c *Config) {
			c.Load.Tenants[1].Name = "t1\nprod"
		}, "load.tenants[1].name"},
		{"duplicate load tenant", baseConnect, func(c *Config) {
			c.Load.Tenants[1].Name = "t0"
		}, "load.tenants[1].name"},
		{"zero load tenant weight", baseConnect, func(c *Config) {
			c.Load.Tenants[1].Weight = 0
		}, "load.tenants[1].weight"},
		{"negative load tenant weight", baseLocal, func(c *Config) {
			c.Load.Tenants = []LoadTenant{{Name: "t0", Weight: -1}}
		}, "load.tenants[0].weight"},
		{"accuracy above 100", baseLocal, func(c *Config) {
			c.Load.SLO.MinAccuracy = 120
		}, "load.slo.minAccuracy"},
		{"negative accuracy", baseLocal, func(c *Config) {
			c.Load.SLO.MinAccuracy = -1
		}, "load.slo.minAccuracy"},
		{"negative max latency", baseLocal, func(c *Config) {
			c.Load.SLO.MaxLatency = Duration(-time.Millisecond)
		}, "load.slo.maxLatency"},
		{"empty target", baseLocal, func(c *Config) {
			c.Load.Targets = []string{""}
		}, "load.targets[0]"},
		{"unknown target", baseLocal, func(c *Config) {
			c.Load.Targets = []string{"nope"}
		}, "load.targets[0]"},
		{"duplicate target", baseLocal, func(c *Config) {
			c.Load.Targets = []string{"resnet", "resnet"}
		}, "load.targets[1]"},
		{"min accuracy on pool target", baseLocal, func(c *Config) {
			c.Load.Targets = []string{"mini-vgg/plain"}
		}, "load.slo.minAccuracy"},
		{"impossible min accuracy", baseLocal, func(c *Config) {
			c.Load.SLO.MinAccuracy = 99 // resnet18 tops out at 94.32
		}, "load.slo.minAccuracy"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.base()
			if err := c.Validate(); err != nil {
				t.Fatalf("base config must validate, got: %v", err)
			}
			tc.mutate(c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("mutated config passed validation")
			}
			var ferr *Error
			if !errors.As(err, &ferr) {
				t.Fatalf("error %v (%T) is not a *fleetcfg.Error", err, err)
			}
			if ferr.Path != tc.wantPath {
				t.Fatalf("error path = %q (%v), want %q", ferr.Path, err, tc.wantPath)
			}
		})
	}
}

// TestValidateAcceptsResolved pins that Validate's verdict does not
// flip once defaults are filled: a valid config stays valid resolved,
// and Resolve is idempotent.
func TestValidateAcceptsResolved(t *testing.T) {
	for name, base := range map[string]func() *Config{"local": baseLocal, "cluster": baseCluster, "connect": baseConnect} {
		r := base().Resolve()
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: resolved config must validate, got: %v", name, err)
		}
		if again := r.Resolve(); !reflect.DeepEqual(r, again) {
			t.Fatalf("%s: Resolve is not idempotent:\n first %+v\nsecond %+v", name, r, again)
		}
	}
}

// TestResolvePure pins that Resolve never mutates its receiver.
func TestResolvePure(t *testing.T) {
	c := baseLocal()
	before := *c.clone()
	c.Resolve()
	if !reflect.DeepEqual(&before, c) {
		t.Fatalf("Resolve mutated its receiver:\nbefore %+v\nafter  %+v", &before, c)
	}
}

// TestResolveKeepsLoadShape pins that the load fields with no default
// (the pipeline window and the tenant mix) survive Resolve as written,
// and that the resolved mix is a copy, not an alias of the receiver's.
func TestResolveKeepsLoadShape(t *testing.T) {
	c := baseConnect()
	r := c.Resolve()
	if r.Load.Pipeline != 32 {
		t.Errorf("resolved pipeline = %d, want 32", r.Load.Pipeline)
	}
	if !reflect.DeepEqual(r.Load.Tenants, c.Load.Tenants) {
		t.Errorf("resolved tenants = %+v, want %+v", r.Load.Tenants, c.Load.Tenants)
	}
	r.Load.Tenants[0].Weight = 99
	if c.Load.Tenants[0].Weight != 10 {
		t.Error("the resolved tenant mix aliases the receiver's")
	}
	if got := baseConnect().Topology(); !strings.Contains(got, " pipeline=32 ") || !strings.Contains(got, " tenants=[t0:10 t1:1]") {
		t.Errorf("topology does not render the load shape:\n%s", got)
	}
}

// TestModeDerivation pins the role each section combination resolves
// to — the single mode-resolution point the CLI relies on.
func TestModeDerivation(t *testing.T) {
	local := baseLocal()
	if m := local.Mode(); m != ModeLocal {
		t.Fatalf("local config mode = %v", m)
	}
	listen := baseLocal()
	listen.Server.Listen = ":8080"
	listen.Load = nil
	if m := listen.Mode(); m != ModeListen {
		t.Fatalf("listen config mode = %v", m)
	}
	mux := baseLocal()
	mux.Server.MuxListen = ":8091"
	mux.Load = nil
	if m := mux.Mode(); m != ModeListen {
		t.Fatalf("mux-only listen config mode = %v", m)
	}
	if err := mux.Validate(); err != nil {
		t.Fatalf("mux-only listen config must validate, got: %v", err)
	}
	connect := &Config{Load: &Load{Connect: "h:1", Targets: []string{"x"}}}
	if m := connect.Mode(); m != ModeConnect {
		t.Fatalf("connect config mode = %v", m)
	}
	if m := baseCluster().Mode(); m != ModeCluster {
		t.Fatalf("cluster config mode = %v", m)
	}
}

// TestUnknownModelKindMessage pins the unknown-kind message, whose
// list of known kinds comes from the models package's name table.
func TestUnknownModelKindMessage(t *testing.T) {
	c := baseLocal()
	c.Models[1].Kind = "alexnet"
	err := c.Validate()
	want := `unknown model kind "alexnet" (known: [vgg16 resnet18 mobilenet mini-vgg mini-resnet mini-mobilenet])`
	var fe *Error
	if !errors.As(err, &fe) || fe.Msg != want {
		t.Fatalf("Validate() = %v, want message %q", err, want)
	}
}
