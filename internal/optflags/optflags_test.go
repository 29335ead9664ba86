package optflags

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"repro"
)

func parse(t *testing.T, args ...string) (*repro.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := Register(fs)
	return o, fs.Parse(args)
}

// TestRegisterDefaults: with no flags set, only the hybrid's default budget
// t differs from the zero Options.
func TestRegisterDefaults(t *testing.T) {
	o, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if want := (repro.Options{Timeout: defaultTimeout}); !reflect.DeepEqual(*o, want) {
		t.Fatalf("defaults = %+v, want %+v", *o, want)
	}
}

// TestRegisterParsesEveryFlag sets all five flags, including the -1
// sentinel the help text documents, and gets valid Options.
func TestRegisterParsesEveryFlag(t *testing.T) {
	o, err := parse(t, "-timeout", "1s", "-workers", "3", "-cache", "-1",
		"-strategy", "gradient", "-approx-min-samples", "200")
	if err != nil {
		t.Fatal(err)
	}
	want := repro.Options{
		Timeout: time.Second, Workers: 3, CacheSize: -1,
		Strategy: repro.StrategyGradient, Budget: repro.ExplainBudget{MinSamples: 200},
	}
	if !reflect.DeepEqual(*o, want) {
		t.Fatalf("parsed %+v, want %+v", *o, want)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterRejects: an unknown strategy fails the parse, and negative
// values other than the documented -1 sentinel fail Options.Validate.
func TestRegisterRejects(t *testing.T) {
	if _, err := parse(t, "-strategy", "fastest"); err == nil {
		t.Error("unknown -strategy parsed")
	}
	for _, args := range [][]string{{"-cache", "-5"}, {"-workers", "-1"}} {
		o, err := parse(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		if o.Validate() == nil {
			t.Errorf("%v validated", args)
		}
	}
}
