package cli

import (
	"flag"
	"io"
	"reflect"
	"strconv"
	"testing"

	"spiffi/internal/core"
	"spiffi/internal/trace"
)

// toolOnly lists the registered flags that reach neither Config nor
// TraceOptions, each with the reason.
var toolOnly = map[string]string{
	"workers":   "sizes the worker pool of the tools that evaluate many runs; results are identical for any value",
	"trace-out": "names where ExportTrace writes; it does not change what a run records",
}

// companions are the flags a flag's value needs before it takes effect.
var companions = map[string][]string{
	"classes":      {"-sched", "real-time"},
	"spacing":      {"-sched", "real-time"},
	"groups":       {"-sched", "gss"},
	"maxadvance":   {"-sched", "real-time", "-prefetch", "delayed"},
	"vcrskim":      {"-vcr", "1"},
	"cachepolicy":  {"-cache", "64"},
	"prefixblocks": {"-cache", "64"},
	"cachedecay":   {"-cache", "64"},
}

// values are the non-default values of the flags whose values are names
// or specs; every other flag flips (bool) or takes 2*default+1 (number).
var values = map[string]string{
	"sched":       "fcfs",
	"replace":     "love-prefetch",
	"prefetch":    "off",
	"cachepolicy": "zipf-rank",
	"workload":    "steady:10s",
	"trace":       "jsonl",
}

// settings parses args on a fresh flag set and returns what they set.
func settings(t *testing.T, args []string) (core.Config, trace.Options) {
	t.Helper()
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return cfg, f.TraceOptions()
}

// Every registered flag must reach a setting: set to a non-default
// value (with its companions), it changes Config or TraceOptions. A flag
// that maps onto nothing fails here, so a retired setting cannot leave
// its flag behind.
func TestEveryFlagReachesASetting(t *testing.T) {
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	Register(fs)
	for name := range toolOnly {
		if fs.Lookup(name) == nil {
			t.Errorf("tool-only flag -%s is not registered", name)
		}
	}
	fs.VisitAll(func(fl *flag.Flag) {
		if _, ok := toolOnly[fl.Name]; ok {
			return
		}
		v, ok := values[fl.Name]
		if !ok {
			if b, ok := fl.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
				v = strconv.FormatBool(fl.DefValue != "true")
			} else if n, err := strconv.ParseFloat(fl.DefValue, 64); err == nil {
				v = strconv.FormatFloat(2*n+1, 'g', -1, 64)
			} else {
				t.Errorf("-%s: no non-default value for default %q", fl.Name, fl.DefValue)
				return
			}
		}
		base := companions[fl.Name]
		cfg0, tr0 := settings(t, base)
		cfg1, tr1 := settings(t, append(append([]string{}, base...), "-"+fl.Name+"="+v))
		if reflect.DeepEqual(cfg0, cfg1) && tr0 == tr1 {
			t.Errorf("-%s=%s changes neither Config nor TraceOptions", fl.Name, v)
		}
	})
}
