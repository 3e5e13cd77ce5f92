package analysis

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"diagnet/internal/jsonscan"
	"diagnet/internal/obs"
)

// readRequest reads the bounded body of a diagnose route in one pooled
// buffer (obs.ReadBody), presized when the client declared its length, and
// decodes it with decode. The buffer goes back to the pool as soon as it is
// decoded: the decoder copies every value it keeps into a slice of its own
// (the continual plane keeps those, not the body), and its errors are
// formatted when they are made. An oversized body is a 413 and anything
// else that fails a 400; it reports whether decoding succeeded (the error
// response is already written otherwise).
func readRequest[T any](w http.ResponseWriter, r *http.Request, v *T, decode func([]byte, *T) error) bool {
	data, err := obs.ReadBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength, maxRequestBytes)
	if err == nil {
		err = decode(data, v)
		obs.Recycle(data)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// The diagnose routes decode their bodies with a decoder that knows the
// schema. It accepts exactly the documents json.Unmarshal accepts into a
// DiagnoseRequest or a BatchRequest and yields equal structs
// (FuzzDecodeRequest): keys match fields exactly or under case folding,
// a repeated key decodes over the earlier value, null leaves a number or
// a request as it is and sets a slice nil, an int takes no fraction,
// exponent or overflow, a float no value beyond float64's range, and
// members it does not know are validated and skipped. Unlike a
// json.Decoder it also rejects bytes after the value.
//
// Decoded slices are never reused: the continual plane keeps a request's
// landmarks and features after the reply. Only the scratch a fresh array
// is collected in is pooled.
type requestDecoder struct {
	s      jsonscan.Scanner
	ints   []int
	floats []float64
	reqs   []DiagnoseRequest
}

var decoders = sync.Pool{New: func() any { return new(requestDecoder) }}

var (
	requestFields = []string{"service_id", "landmarks", "features", "top_k"}
	batchFields   = []string{"requests"}
)

// decodeDiagnose decodes a /v1/diagnose body into req.
func decodeDiagnose(data []byte, req *DiagnoseRequest) error {
	d := decoders.Get().(*requestDecoder)
	defer d.release()
	d.s = jsonscan.New(data)
	if err := d.request(req); err != nil {
		return err
	}
	return d.s.End()
}

// decodeBatch decodes a /v1/diagnose-batch body into req.
func decodeBatch(data []byte, req *BatchRequest) error {
	d := decoders.Get().(*requestDecoder)
	defer d.release()
	d.s = jsonscan.New(data)
	err := d.s.Object(func(key []byte) error {
		if jsonscan.Field(key, batchFields) == 0 {
			return decodeSlice(d, &req.Requests, &d.reqs, d.request)
		}
		return d.s.Skip()
	})
	if err != nil {
		return err
	}
	return d.s.End()
}

func (d *requestDecoder) release() {
	clear(d.reqs[:cap(d.reqs)]) // the scratch must not pin decoded slices
	d.s = jsonscan.Scanner{}
	decoders.Put(d)
}

func (d *requestDecoder) request(req *DiagnoseRequest) error {
	return d.s.Object(func(key []byte) error {
		switch jsonscan.Field(key, requestFields) {
		case 0:
			return d.int(&req.ServiceID)
		case 1:
			return decodeSlice(d, &req.Landmarks, &d.ints, d.int)
		case 2:
			return decodeSlice(d, &req.Features, &d.floats, d.float)
		case 3:
			return d.int(&req.TopK)
		}
		return d.s.Skip()
	})
}

// number returns a number's literal bytes; ok is false for a null, which
// leaves the target as it is.
func (d *requestDecoder) number(typ string) (lit []byte, ok bool, err error) {
	switch c := d.s.Next(); {
	case c == 'n':
		_, err := d.s.Null()
		return nil, false, err
	case c != '-' && (c < '0' || c > '9'):
		return nil, false, d.s.TypeError(typ)
	}
	lit, err = d.s.Number()
	return lit, err == nil, err
}

func (d *requestDecoder) int(v *int) error {
	lit, ok, err := d.number("int")
	if !ok {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into int", lit)
	}
	*v = int(n)
	return nil
}

func (d *requestDecoder) float(v *float64) error {
	lit, ok, err := d.number("float64")
	if !ok {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into float64", lit)
	}
	*v = f
	return nil
}

// decodeSlice decodes a value into *dst the way json.Unmarshal decodes
// into a slice: null sets it nil, [] makes it empty and non-nil, and an
// array decodes element by element over what *dst already holds — a
// repeated key — so a null element keeps the value beneath it, even one
// past the old length but inside its capacity. A nil *dst, which every
// first occurrence of a key is, collects its elements in scratch and is
// allocated once, at its final length.
func decodeSlice[T any](d *requestDecoder, dst *[]T, scratch *[]T, elem func(*T) error) error {
	if d.s.Next() == 'n' {
		*dst = nil
		_, err := d.s.Null()
		return err
	}
	v, fresh := *dst, *dst == nil
	if fresh {
		v = (*scratch)[:0]
	}
	var zero T
	i := 0
	err := d.s.Array(func() error {
		if i == len(v) {
			if fresh || i == cap(v) {
				v = append(v, zero)
			} else {
				v = v[:i+1]
			}
		}
		i++
		return elem(&v[i-1])
	})
	if err != nil {
		return err
	}
	switch {
	case fresh:
		*scratch = v[:0]
		*dst = make([]T, i)
		copy(*dst, v)
	case i == 0:
		*dst = []T{}
	default:
		*dst = v[:i]
	}
	return nil
}
