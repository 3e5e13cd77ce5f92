package tracing

import (
	"context"
	"io"
	"log/slog"
)

// NewLogHandler is the shared slog handler setup for DiagNet commands: a
// text or JSON handler on w, wrapped so every record logged with a
// context carrying a span (or an extracted remote span context) is
// stamped with trace_id and span_id — the join key between logs and the
// traces served by GET /v1/traces.
func NewLogHandler(w io.Writer, format string) slog.Handler {
	var inner slog.Handler
	if format == "json" {
		inner = slog.NewJSONHandler(w, nil)
	} else {
		inner = slog.NewTextHandler(w, nil)
	}
	return CorrelateHandler(inner)
}

// NewLogger is NewLogHandler wrapped in a *slog.Logger.
func NewLogger(w io.Writer, format string) *slog.Logger {
	return slog.New(NewLogHandler(w, format))
}

// CorrelateHandler wraps any slog.Handler with trace correlation.
func CorrelateHandler(inner slog.Handler) slog.Handler { return &correlHandler{inner: inner} }

type correlHandler struct {
	inner slog.Handler
}

func (h *correlHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h *correlHandler) Handle(ctx context.Context, r slog.Record) error {
	if s := FromContext(ctx); s != nil {
		sc := s.Context()
		r.AddAttrs(slog.String("trace_id", sc.TraceID), slog.String("span_id", sc.SpanID))
	} else if rc, ok := ctx.Value(remoteKey{}).(SpanContext); ok {
		r.AddAttrs(slog.String("trace_id", rc.TraceID), slog.String("span_id", rc.SpanID))
	}
	return h.inner.Handle(ctx, r)
}

func (h *correlHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &correlHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h *correlHandler) WithGroup(name string) slog.Handler {
	return &correlHandler{inner: h.inner.WithGroup(name)}
}
