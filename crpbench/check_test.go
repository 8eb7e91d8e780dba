package main

import (
	"strings"
	"testing"
)

const testLEF = `VERSION 5.8 ;
UNITS
  DATABASE MICRONS 1000 ;
END UNITS

LAYER M1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
END M1

LAYER M2
  TYPE ROUTING ;
  DIRECTION VERTICAL ;
END M2

VIA V12 DEFAULT
  LAYERBELOW M1 ;
END V12

SITE core
  CLASS CORE ;
  SIZE 0.1000 BY 1.0000 ;
END core

MACRO CELL_X2
  CLASS CORE ;
  SIZE 0.2000 BY 1.0000 ;
  SITE core ;
  PIN A
    PORT
      LAYER M1 ;
      POINT 0.0500 0.2500 ;
    END
  END A
  PIN Z
    PORT
      LAYER M1 ;
      POINT 0.1500 0.7500 ;
    END
  END Z
END CELL_X2

END LIBRARY
`

const testDEF = `VERSION 5.8 ;
DESIGN tiny ;
UNITS DISTANCE MICRONS 1000 ;

DIEAREA ( 0 0 ) ( 2000 2000 ) ;

ROW row_0 core 0 0 N DO 20 BY 1 STEP 100 0 ;
ROW row_1 core 0 1000 FS DO 20 BY 1 STEP 100 0 ;

COMPONENTS 3 ;
- a CELL_X2 + PLACED ( 0 0 ) N ;
- b CELL_X2 + PLACED ( 200 0 ) N ;
- c CELL_X2 + PLACED ( 1000 1000 ) FS ;
END COMPONENTS

PINS 1 ;
- io0 + NET n1 + LAYER M2 + PLACED ( 0 500 ) ;
END PINS

BLOCKAGES 0 ;
END BLOCKAGES

NETS 2 ;
- n0 ( a A ) ( b A ) ;
- n1 ( a Z ) ( c A ) ( PIN io0 ) ;
END NETS

END DESIGN
`

// n0's terminals share one GCell, so its block is empty.
const testGuide = `n0
(
)
n1
(
0 0 1000 2000 M1
1000 0 2000 2000 M2
)
`

func checkTexts(t *testing.T, def, guide string) error {
	t.Helper()
	lib, err := parseLEF([]byte(testLEF))
	if err != nil {
		t.Fatalf("parseLEF: %v", err)
	}
	in, err := parseDEF([]byte(testDEF))
	if err != nil {
		t.Fatalf("parseDEF(input): %v", err)
	}
	return checkOutputs(lib, in, []byte(def), []byte(guide))
}

func TestCheckerAcceptsLegalOutput(t *testing.T) {
	if err := checkTexts(t, testDEF, testGuide); err != nil {
		t.Fatalf("legal output rejected: %v", err)
	}
	lib, _ := parseLEF([]byte(testLEF))
	if lib.dbu != 1000 || lib.siteW != 100 || lib.siteH != 1000 || lib.macros["CELL_X2"] != [2]int{200, 1000} {
		t.Errorf("parsed LEF %+v", lib)
	}
	if !lib.layers["M1"] || !lib.layers["M2"] || len(lib.layers) != 2 {
		t.Errorf("routing layers %v", lib.layers)
	}
}

func TestCheckerRejectsBadOutputs(t *testing.T) {
	cases := []struct {
		name       string
		def, guide string
		want       string
	}{
		{"overlapped placement",
			strings.Replace(testDEF, "- b CELL_X2 + PLACED ( 200 0 )", "- b CELL_X2 + PLACED ( 100 0 )", 1), testGuide,
			"overlap"},
		{"dropped guide",
			testDEF, strings.Replace(testGuide, "n1\n(\n0 0 1000 2000 M1\n1000 0 2000 2000 M2\n)\n", "", 1),
			"no route guide"},
		{"off the site grid",
			strings.Replace(testDEF, "- b CELL_X2 + PLACED ( 200 0 )", "- b CELL_X2 + PLACED ( 250 0 )", 1), testGuide,
			"site grid"},
		{"between rows",
			strings.Replace(testDEF, "- c CELL_X2 + PLACED ( 1000 1000 )", "- c CELL_X2 + PLACED ( 1000 500 )", 1), testGuide,
			"not on a row"},
		{"outside its row",
			strings.Replace(testDEF, "- c CELL_X2 + PLACED ( 1000 1000 )", "- c CELL_X2 + PLACED ( 1900 1000 )", 1), testGuide,
			"outside its row"},
		{"guide misses a cell",
			testDEF, strings.Replace(testGuide, "0 0 1000 2000 M1\n1000 0 2000 2000 M2\n", "0 0 500 500 M1\n", 1),
			"does not reach cell c"},
		{"unknown guide layer",
			testDEF, strings.Replace(testGuide, " M2\n", " M9\n", 1),
			"unknown routing layer"},
		{"truncated DEF",
			strings.TrimSuffix(testDEF, "END DESIGN\n"), testGuide,
			"truncated"},
		{"lost cell",
			strings.Replace(strings.Replace(testDEF, "COMPONENTS 3 ;", "COMPONENTS 2 ;", 1), "- c CELL_X2 + PLACED ( 1000 1000 ) FS ;\n", "", 1), testGuide,
			"input 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkTexts(t, tc.def, tc.guide)
			if err == nil {
				t.Fatalf("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
