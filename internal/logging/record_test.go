package logging

import (
	"strings"
	"testing"
)

// TestParseFramework pins the command-line framework vocabulary shared
// by intellog and loggen, including the flink / hdfs / yarn-rm
// simulators.
func TestParseFramework(t *testing.T) {
	good := map[string]Framework{
		"spark":      Spark,
		"mapreduce":  MapReduce,
		"mr":         MapReduce,
		"tez":        Tez,
		"tensorflow": TensorFlow,
		"tf":         TensorFlow,
		"flink":      Flink,
		"FLINK":      Flink,
		"hdfs":       HDFS,
		"HDFS":       HDFS,
		"yarn-rm":    YarnRM,
		"yarnrm":     YarnRM,
	}
	for in, want := range good {
		fw, err := ParseFramework(in)
		if err != nil {
			t.Errorf("ParseFramework(%q): %v", in, err)
		} else if fw != want {
			t.Errorf("ParseFramework(%q) = %s, want %s", in, fw, want)
		}
	}
	for _, in := range []string{"hive", "yarn", "", "hdfs2", "flinkk"} {
		if _, err := ParseFramework(in); err == nil || !strings.Contains(err.Error(), "unknown framework") {
			t.Errorf("ParseFramework(%q) = %v, want unknown-framework error", in, err)
		}
	}
}
