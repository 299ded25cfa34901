package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Header opens every machine-readable bench report: the report's schema
// and the date and host it was measured on. Reports embed it first, so
// its keys lead the JSON object.
type Header struct {
	Schema string `json:"schema"`
	Date   string `json:"date"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	CPUs   int    `json:"cpus"`
}

// newHeader stamps a report of the given schema with today's UTC date and
// this host.
func newHeader(schema string) Header {
	return Header{
		Schema: schema,
		Date:   time.Now().UTC().Format("2006-01-02"),
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}
}

// WriteJSON writes rep as indented JSON to path, or to stdout when path
// is "-". A failure to close the file is returned: it can be the write
// that did not reach the disk.
func WriteJSON(path string, rep any) (err error) {
	out := os.Stdout
	if path != "-" {
		if out, err = os.Create(path); err != nil {
			return err
		}
		defer func() {
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}()
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("bench: encode report: %w", err)
	}
	return nil
}
