package sweep

import (
	"reflect"
	"testing"

	"bytescheduler/internal/cluster"
	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/network"
	"bytescheduler/internal/runner"
)

// keyExempt names the runner.Config fields Key leaves out on purpose: sinks
// whose side effects make a config uncacheable instead (see
// TestUncacheableConfigsAlwaysExecute).
var keyExempt = map[string]bool{"Trace": true, "Metrics": true}

// opaqueAlternatives lists, for a field type whose state is unexported, the
// values a field of that type is changed to; each differs from the one
// coverBase holds.
var opaqueAlternatives = map[reflect.Type][]reflect.Value{
	reflect.TypeOf(compress.Codec{}): {
		reflect.ValueOf(compress.Identity()),
		reflect.ValueOf(compress.FP16Codec()),
		reflect.ValueOf(mustTopK(0.02)),
	},
}

func mustTopK(keep float64) compress.Codec {
	c, err := compress.TopKCodec(keep)
	if err != nil {
		panic(err)
	}
	return c
}

// coverBase is a single-job configuration with every pointer and slice the
// key reads populated, so the walk below reaches every nested field.
func coverBase() runner.Config {
	cfg := testCfg(1)
	cfg.Policy = core.ByteScheduler(4<<20, 16<<20)
	comp := compress.NewTopK(0.01)
	cfg.Compression = &comp
	cfg.Faults = &network.FaultConfig{Seed: 1, DropProb: 0.01, RetransmitDelay: 1e-3,
		SpikeProb: 0.01, SpikeSec: 1e-3, Outages: []network.Outage{{Node: 1, Start: 0.1, Duration: 0.01}}}
	return cfg
}

// clusterBase is coverBase switched to a multi-job scenario, whose own
// fields are then the whole key.
func clusterBase() runner.Config {
	cfg := coverBase()
	cfg.Cluster = &cluster.Scenario{Jobs: 10, Nodes: 4, SlotsPerNode: 2, LinkGbps: 10,
		MaxDelayMs: 1, CreditPool: 64, ArrivalWindowSec: 5, Seed: 1}
	return cfg
}

// keyMutation changes one field, reached by path, of a fresh configuration.
type keyMutation struct {
	path   string
	mutate func(*runner.Config)
}

// fieldMutations returns a mutation of every exported field reachable from
// v, the value at path in the base configuration; at finds the same place in
// a fresh copy. Structs, pointers and slices are walked into (a slice's
// first element stands for all of them), so a field added to any nested type
// is reached without listing it here.
func fieldMutations(t *testing.T, v reflect.Value, path string, at func(*runner.Config) reflect.Value) []keyMutation {
	t.Helper()
	var out []keyMutation
	leaf := func(f func(reflect.Value)) {
		out = append(out, keyMutation{path, func(c *runner.Config) { f(at(c)) }})
	}
	if alts, ok := opaqueAlternatives[v.Type()]; ok {
		for _, alt := range alts {
			leaf(func(x reflect.Value) { x.Set(alt) })
		}
		return out
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() || keyExempt[f.Name] {
				continue
			}
			out = append(out, fieldMutations(t, v.Field(i), path+"."+f.Name,
				func(c *runner.Config) reflect.Value { return at(c).Field(i) })...)
		}
	case reflect.Pointer:
		if v.IsNil() {
			leaf(func(x reflect.Value) { x.Set(reflect.New(x.Type().Elem())) })
			return out
		}
		leaf(func(x reflect.Value) { x.SetZero() })
		out = append(out, fieldMutations(t, v.Elem(), path,
			func(c *runner.Config) reflect.Value { return at(c).Elem() })...)
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s: the base config must populate this slice for the walk to reach its elements", path)
		}
		leaf(func(x reflect.Value) { x.Set(x.Slice(0, x.Len()-1)) })
		out = append(out, fieldMutations(t, v.Index(0), path+"[0]",
			func(c *runner.Config) reflect.Value { return at(c).Index(0) })...)
	case reflect.Func:
		leaf(func(x reflect.Value) {
			if !x.IsNil() {
				x.SetZero()
				return
			}
			ft := x.Type()
			x.Set(reflect.MakeFunc(ft, func([]reflect.Value) []reflect.Value {
				res := make([]reflect.Value, ft.NumOut())
				for i := range res {
					res[i] = reflect.Zero(ft.Out(i))
				}
				return res
			}))
		})
	case reflect.Bool:
		leaf(func(x reflect.Value) { x.SetBool(!x.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		leaf(func(x reflect.Value) { x.SetInt(x.Int() + 1) })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		leaf(func(x reflect.Value) { x.SetUint(x.Uint() + 1) })
	case reflect.Float32, reflect.Float64:
		leaf(func(x reflect.Value) { x.SetFloat(x.Float()*2 + 1) })
	case reflect.String:
		leaf(func(x reflect.Value) { x.SetString(x.String() + "'") })
	default:
		t.Fatalf("%s: no mutation for kind %s; decide how Key covers it", path, v.Kind())
	}
	return out
}

// TestKeyCoversEveryField changes every exported field of runner.Config and
// of the types it nests, one at a time, and requires each change to move
// the cache key or make the config uncacheable — so a field added later
// without a key decision fails here instead of silently sharing a cached
// result with a config that behaves differently. Only keyExempt is skipped.
func TestKeyCoversEveryField(t *testing.T) {
	root := func(c *runner.Config) reflect.Value { return reflect.ValueOf(c).Elem() }
	cases := []struct {
		name string
		base func() runner.Config
		muts []keyMutation
	}{
		{name: "single job", base: coverBase,
			muts: fieldMutations(t, reflect.ValueOf(coverBase()), "Config", root)},
		{name: "cluster", base: clusterBase,
			muts: fieldMutations(t, reflect.ValueOf(clusterBase()).FieldByName("Cluster"), "Config.Cluster",
				func(c *runner.Config) reflect.Value { return root(c).FieldByName("Cluster") })},
	}
	for _, tc := range cases {
		baseKey, ok := Key(tc.base())
		if !ok {
			t.Fatalf("%s: base config not cacheable", tc.name)
		}
		for _, m := range tc.muts {
			cfg := tc.base()
			m.mutate(&cfg)
			if k, ok := Key(cfg); ok && k == baseKey {
				t.Errorf("%s: changing %s leaves the cache key unchanged: fold it into Key, or exempt it in keyExempt", tc.name, m.path)
			}
		}
	}
	// The walk reaches every nested type; a count this low would mean it
	// stopped at the top level.
	if n := len(cases[0].muts); n < 50 {
		t.Fatalf("walk produced only %d single-job mutations", n)
	}
}
