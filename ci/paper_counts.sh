#!/bin/sh
# Reads `experiments fig13 fig15` output on stdin and prints its count
# columns: faults and node_acc for every row, plus candidates and results
# for the Figure 13 rows. The counts are deterministic on one thread, so
# CI diffs them exactly against the committed ci/paper_counts_0.05.txt:
#
#   experiments fig13 fig15 --scale 0.05 --threads 1 | sh ci/paper_counts.sh
awk '
/^== Figure 13/ { fig = "fig13"; print "# fig13 combination algo faults node_acc candidates results" }
/^== Figure 15/ { fig = "fig15"; print "# fig15 buffer(%) algo faults node_acc" }
fig == "fig13" && NF == 9 && $2 ~ /^(INJ|BIJ|OBJ)$/ { print fig, $1, $2, $6, $7, $8, $9 }
fig == "fig15" && NF == 7 && $2 ~ /^(INJ|BIJ|OBJ)$/ { print fig, $1, $2, $6, $7 }
'
