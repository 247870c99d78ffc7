// CSV and JSON emission. CSV keeps the historical per-kind column
// layouts (including wall-clock columns); JSON carries only the
// deterministic metrics, with rows in canonical (variant, m, N, s)
// order and map keys sorted by encoding/json — so two sweeps of the
// same grid emit byte-identical JSON whether their points were computed
// or read from the cache.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// JSONRow is the wire form of a Row.
type JSONRow struct {
	Variant string             `json:"variant"`
	M       int                `json:"m"`
	N       int                `json:"n"`
	S       int                `json:"s,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// JSONOutput is the -json document; it doubles as a baseline file
// format for -baseline.
type JSONOutput struct {
	Sweep string    `json:"sweep"`
	Rows  []JSONRow `json:"rows"`
}

// JSON returns the result's canonical JSON document.
func (r *Result) JSON() ([]byte, error) {
	out := JSONOutput{Sweep: r.Kind, Rows: make([]JSONRow, len(r.Rows))}
	for i, row := range r.Rows {
		out.Rows[i] = JSONRow{Variant: row.Variant, M: row.M, N: row.N, S: row.S, Metrics: row.Metrics}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON emits the canonical JSON document.
func (r *Result) WriteJSON(w io.Writer) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteCSV emits the historical CSV layout for the result's kind.
func (r *Result) WriteCSV(w io.Writer) error {
	for _, c := range r.Comments {
		if _, err := fmt.Fprintln(w, c); err != nil {
			return err
		}
	}
	switch r.Kind {
	case "compile":
		fmt.Fprintln(w, "engine,s,m,n,compile_ns,segments,mincost")
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%.0f\n",
				row.Variant, row.S, row.M, row.N,
				int64(row.Wall["compile_ns"]),
				int64(row.Metrics["segments"]), row.Metrics["mincost"])
		}
	case "symbolic":
		fmt.Fprintln(w, "prog,n,m,total,exec,redist,loopcarried,eval_ns")
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%s,%d,%d,%.0f,%.0f,%.0f,%.0f,%d\n",
				row.Variant, row.N, row.M,
				row.Metrics["total"], row.Metrics["exec"],
				row.Metrics["redist"], row.Metrics["loopcarried"],
				int64(row.Wall["eval_ns"]))
		}
	case "exec":
		fmt.Fprintln(w, "prog,engine,m,n,wall_ns,simtime,messages,words,transport_messages,transport_words,max_msg_words,max_pair_messages,max_pair_words")
		for _, row := range r.Rows {
			prog, engine := splitVariant(row.Variant)
			fmt.Fprintf(w, "%s,%s,%d,%d,%d,%.0f,%d,%d,%d,%d,%d,%d,%d\n",
				prog, engine, row.M, row.N,
				int64(row.Wall["wall_ns"]), row.Metrics["simtime"],
				int64(row.Metrics["messages"]), int64(row.Metrics["words"]),
				int64(row.Metrics["transport_messages"]), int64(row.Metrics["transport_words"]),
				int64(row.Metrics["max_msg_words"]),
				int64(row.Metrics["max_pair_messages"]), int64(row.Metrics["max_pair_words"]))
		}
	case "scale":
		fmt.Fprintln(w, "prog,engine,m,n,wall_ns,sim_ns,simtime,messages,words,transport_messages,transport_words,max_pair_messages,max_pair_words")
		for _, row := range r.Rows {
			prog, engine := splitVariant(row.Variant)
			fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%.0f,%d,%d,%d,%d,%d,%d\n",
				prog, engine, row.M, row.N,
				int64(row.Wall["wall_ns"]), int64(row.Wall["sim_ns"]),
				row.Metrics["simtime"],
				int64(row.Metrics["messages"]), int64(row.Metrics["words"]),
				int64(row.Metrics["transport_messages"]), int64(row.Metrics["transport_words"]),
				int64(row.Metrics["max_pair_messages"]), int64(row.Metrics["max_pair_words"]))
		}
	case "layouts":
		fmt.Fprintln(w, "prog,layout,m,n,wall_ns,modelled,makespan,words,ratio,model_rank,machine_rank")
		for _, row := range r.Rows {
			prog, layout := splitVariant(row.Variant)
			fmt.Fprintf(w, "%s,%s,%d,%d,%d,%.0f,%.0f,%d,%.4f,%d,%d\n",
				prog, layout, row.M, row.N, int64(row.Wall["wall_ns"]),
				row.Metrics["modelled"], row.Metrics["makespan"], int64(row.Metrics["words"]),
				row.Metrics["ratio"], int64(row.Metrics["model_rank"]), int64(row.Metrics["machine_rank"]))
		}
	case "serve":
		fmt.Fprintln(w, "dist,m,n,keys,requests,errors,misses_after_warm,p50_ns,p99_ns,max_ns,rps")
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.0f\n",
				row.Variant, row.M, row.N, row.S,
				int64(row.Metrics["requests"]), int64(row.Metrics["errors"]), int64(row.Metrics["misses_after_warm"]),
				int64(row.Wall["p50_ns"]), int64(row.Wall["p99_ns"]), int64(row.Wall["max_ns"]), row.Wall["rps"])
		}
	default: // kernel sweeps
		fmt.Fprintln(w, "variant,m,n,simtime,words,maxflops")
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%s,%d,%d,%.0f,%d,%d\n",
				row.Variant, row.M, row.N, row.Metrics["simtime"],
				int64(row.Metrics["words"]), int64(row.Metrics["maxflops"]))
		}
	}
	return nil
}

// splitVariant splits a "prog/engine" variant; the engine part is empty
// when there is no slash.
func splitVariant(v string) (prog, engine string) {
	if i := strings.IndexByte(v, '/'); i >= 0 {
		return v[:i], v[i+1:]
	}
	return v, ""
}
