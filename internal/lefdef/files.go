package lefdef

import (
	"io"

	"github.com/crp-eda/crp/internal/atomicio"
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/tech"
)

// The *File variants are the crash-safe way to put flow outputs on disk:
// each writes to a temp file in the destination directory, fsyncs, and
// renames into place, so a crash mid-write can never leave a torn or empty
// DEF/LEF where a previous good output used to be.

// WriteLEFFile atomically writes the LEF to path.
func WriteLEFFile(path string, t *tech.Tech, macros []*db.Macro) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return WriteLEF(w, t, macros)
	})
}

// WriteDEFFile atomically writes the design's DEF to path.
func WriteDEFFile(path string, d *db.Design) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return WriteDEF(w, d)
	})
}
