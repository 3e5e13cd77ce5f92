package analysis

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"

	"diagnet/internal/continual"
	"diagnet/internal/core"
	"diagnet/internal/durable"
	"diagnet/internal/serving"
	"diagnet/internal/tracing"
)

// Options describes one replica. Every field is the target of one
// diagnetd flag or an existing config struct passed through whole; Open
// adds only the wiring between the planes, so tuning stays with the
// caller (the daemon's flag defaults, the soak's 20 ms check interval).
type Options struct {
	// The model source, first one set wins. ModelDir registers every
	// *.gob in it as a version named after its file, boots ServeVersion
	// (default: the lexically last) and enables POST /v1/models "load";
	// Bundle (in memory) and ModelPath (a bundle file, the one model file
	// core.LoadBundle reads) become version "boot".
	ModelDir     string
	ServeVersion string
	Bundle       *core.Bundle
	ModelPath    string

	// StateDir makes the model lifecycle crash-safe (DESIGN.md §13) and
	// hosts continual/{samples,ckpt,state}. Empty keeps everything in
	// memory. Fsync is the durability of every journal under it.
	StateDir string
	Fsync    durable.FsyncPolicy

	Serving serving.Config

	// Continual closes the learning loop (DESIGN.md §15). Open sets
	// Store.{Dir,Fsync}, Trainer.{CheckpointDir,Load} and Loop.{Engine,
	// Store,Trainer,StateDir,Fsync}; the rest is the caller's.
	Continual bool
	Store     continual.StoreConfig
	Trainer   continual.TrainerConfig
	Loop      continual.Config
}

// Open boots a replica; the order of its statements is the boot order
// (DESIGN.md §18). The caller serves Handler() and calls Close. A failed
// Open has released everything it acquired.
func Open(opt Options) (_ *Server, err error) {
	s := NewServerFromEngine(serving.New(opt.Serving))
	s.ModelDir = opt.ModelDir
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	reg := s.engine.Registry()

	boot := "boot"
	switch {
	case opt.ModelDir != "":
		var versions []string
		versions, err = reg.LoadDir(opt.ModelDir)
		switch {
		case err != nil:
		case len(versions) == 0:
			err = fmt.Errorf("analysis: no *.gob model versions in %s", opt.ModelDir)
		case opt.ServeVersion != "":
			boot = opt.ServeVersion
		default:
			boot = versions[len(versions)-1]
		}
	case opt.Bundle != nil:
		err = reg.Add(boot, opt.Bundle)
	default:
		err = reg.LoadFile(boot, opt.ModelPath)
	}
	if err != nil {
		return nil, err
	}

	// Recovery runs before the boot promotion and before the gate opens: a
	// restarted replica serves the last acknowledged version, not the
	// default, and no request can observe the gap.
	if opt.StateDir != "" {
		if s.persist, err = serving.OpenPersistence(opt.StateDir, opt.Fsync); err != nil {
			return nil, fmt.Errorf("analysis: open state dir %s: %w", opt.StateDir, err)
		}
		reg.AttachPersistence(s.persist)
		switch recovered, err := s.persist.Recover(reg); {
		case err != nil:
			// The state names a version we cannot serve (model file gone,
			// warm-up failure). Availability wins, loudly: this is
			// operator-visible state loss.
			slog.Error("state recovery failed; falling back to default boot version",
				"err", err, "fallback", boot)
		case recovered != "":
			boot = recovered
		}
	}
	if reg.Active() != boot {
		if err := reg.Promote(boot); err != nil {
			return nil, fmt.Errorf("analysis: boot promotion: %w", err)
		}
	}
	if s.persist != nil {
		// Compact the replayed journal so the next restart recovers from
		// one snapshot instead of the whole history.
		if _, err := s.persist.Checkpoint(); err != nil {
			slog.Warn("boot checkpoint failed", "err", err)
		}
	}
	if opt.Continual {
		if err := s.openContinual(opt); err != nil {
			return nil, err
		}
	}

	cfg := s.engine.Config()
	slog.Info("serving model version", "version", boot, "history_depth", len(reg.History()),
		"batch_max", cfg.BatchMax,
		"queue_depth", cfg.QueueDepth, "workers", cfg.Workers,
		"durable", s.persist != nil, "continual", opt.Continual)
	s.SetReady(true)
	return s, nil
}

// openContinual wires sample store → trainer → controller onto the
// engine and the request path, with all state under
// <state-dir>/continual when there is a state dir (memory-only otherwise:
// a restart forgets the buffer and the cycle history).
func (s *Server) openContinual(opt Options) error {
	store, trainer, loop := opt.Store, opt.Trainer, opt.Loop
	if opt.StateDir != "" {
		base := filepath.Join(opt.StateDir, "continual")
		store.Dir, store.Fsync = filepath.Join(base, "samples"), opt.Fsync
		trainer.CheckpointDir = filepath.Join(base, "ckpt")
		loop.StateDir, loop.Fsync = filepath.Join(base, "state"), opt.Fsync
	}
	var err error
	if s.store, err = continual.OpenStore(store); err != nil {
		return err
	}
	// The trainer reads serving pressure from the admission queue and
	// pauses between epochs while the plane is overloaded: retraining
	// must never cost live traffic its latency budget.
	depth := s.engine.Config().QueueDepth
	trainer.Load = func() float64 {
		if depth <= 0 {
			return 0
		}
		return float64(s.engine.Stats().QueueDepth) / float64(depth)
	}
	loop.Trainer, err = continual.NewTrainer(trainer)
	if err != nil {
		return err
	}
	loop.Engine, loop.Store = s.engine, s.store
	ctrl, err := continual.NewController(loop)
	if err != nil {
		return err
	}
	ctrl.Start()
	s.attachContinual(ctrl)
	return nil
}

// Close tears the replica down, awaiting each step; the order of its
// statements is the teardown order. A plane that never opened is skipped,
// which is also how a failed Open releases what it acquired. Idempotent.
func (s *Server) Close() error {
	s.ready.Store(false) // orchestrators stop routing before the drain
	var errs []error
	// Before the drain: an in-flight retrain is canceled (its epoch
	// checkpoint resumes it next boot), and so is a shadow phase, whose
	// candidate is only ever held by the cycle.
	if ctrl := s.loop.Load(); ctrl != nil {
		errs = append(errs, ctrl.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), serving.DrainTimeout)
	errs = append(errs, s.engine.Close(ctx))
	cancel()
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	if s.persist != nil {
		errs = append(errs, s.persist.Close())
	}
	return errors.Join(errs...)
}

// Checkpoint compacts the state journal into a fresh checkpoint
// generation: diagnetd's SIGHUP, the operator's "make the state compact
// and durable now" before a planned restart.
func (s *Server) Checkpoint() (uint64, error) {
	if s.persist == nil {
		return 0, errors.New("analysis: no state dir to checkpoint")
	}
	ctx, span := tracing.StartSpan(context.Background(), "state.checkpoint")
	defer span.End()
	gen, err := s.persist.Checkpoint()
	if err != nil {
		span.SetError(err)
		return gen, err
	}
	active, history := s.persist.State()
	slog.InfoContext(ctx, "checkpoint written",
		"generation", gen, "active", active, "history_depth", len(history))
	return gen, nil
}
