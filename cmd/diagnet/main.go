// Command diagnet is the DiagNet toolbox: one binary for everything but
// the analysis service (cmd/diagnetd) and its router (cmd/diagnet-router).
// Its subcommands generate datasets, train models, regenerate the paper's
// figures, play and record simulated scenarios, run the landmark servers
// and the client agent of Fig. 1, and watch and soak the serving fleet.
//
// Usage:
//
//	diagnet <command> [flags]
//
// `diagnet -h` lists the commands and `diagnet <command> -h` a command's
// flags. Every command exits 0 when it succeeds (and after -h), 2 when its
// command line is wrong, and 1 when its run fails.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"diagnet"
	"diagnet/internal/durable"
)

// commands is the subcommand table, in the order `diagnet -h` lists it.
var commands = []struct {
	name, summary string
	run           func(args []string) error
}{
	{"datagen", "generate a labeled dataset from the simulated deployment", runDatagen},
	{"train", "train a model, write it as a bundle and report its recall", runTrain},
	{"figures", "regenerate the tables and figures of the paper's evaluation", runFigures},
	{"simulate", "play a what-if fault scenario, optionally through a model", runSimulate},
	{"trace", "record and replay simulated probing sessions", runTrace},
	{"landmark", "serve a landmark, the endpoint clients probe", runLandmark},
	{"probe", "measure landmark servers from this client", runProbe},
	{"agent", "run the client agent against live landmarks and diagnetd", runAgent},
	{"top", "watch a diagnet-router's fleet from a terminal", runTop},
	{"soak", "run the full-stack chaos soak", runSoak},
}

func main() { os.Exit(run(os.Args[1:])) }

// run runs one command line and returns the exit status: the one exit
// policy of every command.
func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "-h", "-help", "--help":
		usage()
		return 0
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		err := c.run(args[1:])
		var u usageError
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.As(err, &u):
			if u != "" {
				fmt.Fprintf(os.Stderr, "diagnet %s: %s\n", c.name, u)
			}
			return 2
		default:
			fmt.Fprintf(os.Stderr, "diagnet %s: %v\n", c.name, err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "diagnet: unknown command %q\n", args[0])
	usage()
	return 2
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: diagnet <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
	}
}

// usageError is a command line the command cannot run (exit 2). An empty
// one is a flag error the flag package has already printed.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, args ...any) error { return usageError(fmt.Sprintf(format, args...)) }

// newFlags returns the flag set of command name, whose positional
// arguments are described by operands. It returns its errors to run
// rather than exiting.
func newFlags(name, operands string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), strings.TrimSpace("usage: diagnet "+name+" [flags] "+operands))
		fs.PrintDefaults()
	}
	return fs
}

// parse parses args into fs; a malformed flag is a usage error.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError("")
	}
	return err
}

// load opens the file at path and decodes it.
func load[T any](path string, decode func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return decode(f)
}

// loadGeneral reads a bundle file, either file train writes, and returns
// its general model.
func loadGeneral(path string) (*diagnet.Model, error) {
	b, err := load(path, diagnet.LoadBundle)
	if err != nil {
		return nil, err
	}
	return b.General, nil
}

// publish encodes a file in memory and publishes it whole: a failed write
// is an error, and a kill mid-write leaves no truncated file.
func publish(path string, encode func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return err
	}
	return durable.WriteFile(path, buf.Bytes())
}
