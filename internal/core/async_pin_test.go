package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
)

// pinnedAsync holds what the async schedule did on a weighted 32×32 grid at
// P=8 and a weighted R-MAT (scale 9, edge factor 8, seed 13) at P=4, for cc,
// bfs, sssp and PageRank-Delta, on raw and delta layouts, with no buffer, a
// buffer of 1/16 of the edge bytes and one twice the graph, under seeds 0 and
// 7: the schedule's counters, the buffer's, the device traffic per class
// (bytes, operations, simulated ns) and a hash of every step's path, blocks,
// reactivations, residual bits and device bytes followed by the outputs'
// bits. A change that moves a line changes which rows pop or what they read;
// re-record only for a change that means to, and say why. The table was
// recorded on amd64; a platform that fuses multiply-adds may round
// PageRank-Delta differently.
var pinnedAsync = map[string]string{
	"bfs/grid/delta/none/seed0":       "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[35582 0 23536 0] ops=[31 0 8 0] ns=[184237205 0 168108 0] hash=6ef0c2360f00aec0",
	"bfs/grid/delta/none/seed7":       "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[35582 0 23536 0] ops=[31 0 8 0] ns=[184237205 0 168108 0] hash=6ef0c2360f00aec0",
	"bfs/grid/delta/sixteenth/seed0":  "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 22 19 0 0] bytes=[35582 0 23536 0] ops=[31 0 8 0] ns=[184237205 0 168108 0] hash=6ef0c2360f00aec0",
	"bfs/grid/delta/sixteenth/seed7":  "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 22 19 0 0] bytes=[35582 0 23536 0] ops=[31 0 8 0] ns=[184237205 0 168108 0] hash=6ef0c2360f00aec0",
	"bfs/grid/delta/whole/seed0":      "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[35582 0 23536 0] ops=[31 0 8 0] ns=[184237205 0 168108 0] hash=6ef0c2360f00aec0",
	"bfs/grid/delta/whole/seed7":      "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[35582 0 23536 0] ops=[31 0 8 0] ns=[184237205 0 168108 0] hash=6ef0c2360f00aec0",
	"bfs/grid/raw/none/seed0":         "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[59904 0 23536 0] ops=[31 0 8 0] ns=[184399354 0 168108 0] hash=6d098153b99cf976",
	"bfs/grid/raw/none/seed7":         "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 0 0 22 0] bytes=[59904 0 23536 0] ops=[31 0 8 0] ns=[184399354 0 168108 0] hash=6d098153b99cf976",
	"bfs/grid/raw/sixteenth/seed0":    "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 14 7 8 0] bytes=[59904 0 23536 0] ops=[31 0 8 0] ns=[184399354 0 168108 0] hash=6d098153b99cf976",
	"bfs/grid/raw/sixteenth/seed7":    "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 14 7 8 0] bytes=[59904 0 23536 0] ops=[31 0 8 0] ns=[184399354 0 168108 0] hash=6d098153b99cf976",
	"bfs/grid/raw/whole/seed0":        "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[59904 0 23536 0] ops=[31 0 8 0] ns=[184399354 0 168108 0] hash=6d098153b99cf976",
	"bfs/grid/raw/whole/seed7":        "steps=8 sel=0 rounds=63 blocks=77 reacts=0 converged=true buf=[0 22 22 0 0 0] bytes=[59904 0 23536 0] ops=[31 0 8 0] ns=[184399354 0 168108 0] hash=6d098153b99cf976",
	"bfs/rmat/delta/none/seed0":       "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[0 28 0 0 28 0] bytes=[52395 0 7872 0] ops=[36 0 7 0] ns=[232349284 0 56225 0] hash=e1d7e2232e8bf1b7",
	"bfs/rmat/delta/none/seed7":       "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[0 28 0 0 28 0] bytes=[52395 0 7872 0] ops=[36 0 7 0] ns=[232349284 0 56225 0] hash=e1d7e2232e8bf1b7",
	"bfs/rmat/delta/sixteenth/seed0":  "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[0 28 20 17 8 0] bytes=[52395 0 7872 0] ops=[36 0 7 0] ns=[232349284 0 56225 0] hash=e1d7e2232e8bf1b7",
	"bfs/rmat/delta/sixteenth/seed7":  "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[0 28 20 17 8 0] bytes=[52395 0 7872 0] ops=[36 0 7 0] ns=[232349284 0 56225 0] hash=e1d7e2232e8bf1b7",
	"bfs/rmat/delta/whole/seed0":      "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[12 16 16 0 0 20826] bytes=[31569 0 7872 0] ops=[24 0 7 0] ns=[136210449 0 56225 0] hash=4abd2899c4d758e2",
	"bfs/rmat/delta/whole/seed7":      "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[12 16 16 0 0 20826] bytes=[31569 0 7872 0] ops=[24 0 7 0] ns=[136210449 0 56225 0] hash=4abd2899c4d758e2",
	"bfs/rmat/raw/none/seed0":         "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[0 28 0 0 28 0] bytes=[104448 0 7872 0] ops=[36 0 7 0] ns=[232696314 0 56225 0] hash=bd19ab6a2eb111f7",
	"bfs/rmat/raw/none/seed7":         "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[0 28 0 0 28 0] bytes=[104448 0 7872 0] ops=[36 0 7 0] ns=[232696314 0 56225 0] hash=bd19ab6a2eb111f7",
	"bfs/rmat/raw/sixteenth/seed0":    "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[0 28 14 12 14 0] bytes=[104448 0 7872 0] ops=[36 0 7 0] ns=[232696314 0 56225 0] hash=bd19ab6a2eb111f7",
	"bfs/rmat/raw/sixteenth/seed7":    "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[0 28 14 12 14 0] bytes=[104448 0 7872 0] ops=[36 0 7 0] ns=[232696314 0 56225 0] hash=bd19ab6a2eb111f7",
	"bfs/rmat/raw/whole/seed0":        "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[12 16 16 0 0 46080] bytes=[58368 0 7872 0] ops=[24 0 7 0] ns=[136389114 0 56225 0] hash=2c8a47186000d773",
	"bfs/rmat/raw/whole/seed7":        "steps=7 sel=0 rounds=13 blocks=34 reacts=4 converged=true buf=[12 16 16 0 0 46080] bytes=[58368 0 7872 0] ops=[24 0 7 0] ns=[136389114 0 56225 0] hash=2c8a47186000d773",
	"cc/grid/delta/none/seed0":        "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[0 57 0 0 57 0] bytes=[86630 0 148080 0] ops=[79 0 21 0] ns=[464577512 0 1057702 0] hash=60f7772ac55fc297",
	"cc/grid/delta/none/seed7":        "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[0 52 0 0 52 0] bytes=[78863 0 142192 0] ops=[72 0 19 0] ns=[424525734 0 1015646 0] hash=d514f53d30c60803",
	"cc/grid/delta/sixteenth/seed0":   "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[0 57 57 54 0 0] bytes=[86630 0 148080 0] ops=[79 0 21 0] ns=[464577512 0 1057702 0] hash=60f7772ac55fc297",
	"cc/grid/delta/sixteenth/seed7":   "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[0 52 52 49 0 0] bytes=[78863 0 142192 0] ops=[72 0 19 0] ns=[424525734 0 1015646 0] hash=d514f53d30c60803",
	"cc/grid/delta/whole/seed0":       "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[35 22 22 0 0 37736] bytes=[48894 0 148080 0] ops=[44 0 21 0] ns=[184325943 0 1057702 0] hash=48055641719b1b2a",
	"cc/grid/delta/whole/seed7":       "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[30 22 22 0 0 32017] bytes=[46846 0 142192 0] ops=[42 0 19 0] ns=[184312291 0 1015646 0] hash=4ff465be67445490",
	"cc/grid/raw/none/seed0":          "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[0 57 0 0 57 0] bytes=[150304 0 148080 0] ops=[79 0 21 0] ns=[465002012 0 1057702 0] hash=e1d54b08f2204e4b",
	"cc/grid/raw/none/seed7":          "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[0 52 0 0 52 0] bytes=[136544 0 142192 0] ops=[72 0 19 0] ns=[424910280 0 1015646 0] hash=f87fdc0132087e2e",
	"cc/grid/raw/sixteenth/seed0":     "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[10 47 26 19 21 3840] bytes=[146464 0 148080 0] ops=[69 0 21 0] ns=[384976412 0 1057702 0] hash=26c738116ba3bef5",
	"cc/grid/raw/sixteenth/seed7":     "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[12 40 21 14 19 4608] bytes=[131936 0 142192 0] ops=[60 0 19 0] ns=[328879560 0 1015646 0] hash=f1a69279dcb6073b",
	"cc/grid/raw/whole/seed0":         "steps=21 sel=0 rounds=219 blocks=255 reacts=1664 converged=true buf=[35 22 22 0 0 77088] bytes=[73216 0 148080 0] ops=[44 0 21 0] ns=[184488092 0 1057702 0] hash=553a4070e1dee6c6",
	"cc/grid/raw/whole/seed7":         "steps=19 sel=0 rounds=211 blocks=244 reacts=1408 converged=true buf=[30 22 22 0 0 65376] bytes=[71168 0 142192 0] ops=[42 0 19 0] ns=[184474440 0 1015646 0] hash=69e0cbdf4fbb991c",
	"cc/rmat/delta/none/seed0":        "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 0 0 40 0] bytes=[65538 0 13072 0] ops=[51 0 10 0] ns=[328436897 0 93367 0] hash=eb882a3afc9bf353",
	"cc/rmat/delta/none/seed7":        "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 0 0 40 0] bytes=[65538 0 13072 0] ops=[51 0 10 0] ns=[328436897 0 93367 0] hash=eb882a3afc9bf353",
	"cc/rmat/delta/sixteenth/seed0":   "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 30 27 10 0] bytes=[65538 0 13072 0] ops=[51 0 10 0] ns=[328436897 0 93367 0] hash=eb882a3afc9bf353",
	"cc/rmat/delta/sixteenth/seed7":   "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 30 27 10 0] bytes=[65538 0 13072 0] ops=[51 0 10 0] ns=[328436897 0 93367 0] hash=eb882a3afc9bf353",
	"cc/rmat/delta/whole/seed0":       "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[24 16 16 0 0 30897] bytes=[34641 0 13072 0] ops=[27 0 10 0] ns=[136230927 0 93367 0] hash=67be6e8d8a42bbe6",
	"cc/rmat/delta/whole/seed7":       "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[24 16 16 0 0 30897] bytes=[34641 0 13072 0] ops=[27 0 10 0] ns=[136230927 0 93367 0] hash=67be6e8d8a42bbe6",
	"cc/rmat/raw/none/seed0":          "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 0 0 40 0] bytes=[128880 0 13072 0] ops=[51 0 10 0] ns=[328859191 0 93367 0] hash=2fa5dc75ea0fc005",
	"cc/rmat/raw/none/seed7":          "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 0 0 40 0] bytes=[128880 0 13072 0] ops=[51 0 10 0] ns=[328859191 0 93367 0] hash=2fa5dc75ea0fc005",
	"cc/rmat/raw/sixteenth/seed0":     "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 22 20 18 0] bytes=[128880 0 13072 0] ops=[51 0 10 0] ns=[328859191 0 93367 0] hash=2fa5dc75ea0fc005",
	"cc/rmat/raw/sixteenth/seed7":     "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[0 40 22 20 18 0] bytes=[128880 0 13072 0] ops=[51 0 10 0] ns=[328859191 0 93367 0] hash=2fa5dc75ea0fc005",
	"cc/rmat/raw/whole/seed0":         "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[24 16 16 0 0 67440] bytes=[61440 0 13072 0] ops=[27 0 10 0] ns=[136409592 0 93367 0] hash=fa491be43982169e",
	"cc/rmat/raw/whole/seed7":         "steps=10 sel=0 rounds=23 blocks=53 reacts=286 converged=true buf=[24 16 16 0 0 67440] bytes=[61440 0 13072 0] ops=[27 0 10 0] ns=[136409592 0 93367 0] hash=fa491be43982169e",
	"prd/grid/delta/none/seed0":       "steps=744 sel=6 rounds=744 blocks=2033 reacts=2456 converged=true buf=[0 2017 0 0 2017 0] bytes=[2921971 288 866288 0] ops=[2784 40 744 0] ns=[16291479089 320002392 6187386 0] hash=94d0aae9daa26460",
	"prd/grid/delta/none/seed7":       "steps=744 sel=6 rounds=744 blocks=2033 reacts=2456 converged=true buf=[0 2017 0 0 2017 0] bytes=[2921971 288 866288 0] ops=[2784 40 744 0] ns=[16291479089 320002392 6187386 0] hash=94d0aae9daa26460",
	"prd/grid/delta/sixteenth/seed0":  "steps=744 sel=3 rounds=744 blocks=2033 reacts=2456 converged=true buf=[283 1741 1741 1738 0 297297] bytes=[2628216 138 866288 0] ops=[2498 16 744 0] ns=[14025520753 128001146 6187386 0] hash=c84dd15347298517",
	"prd/grid/delta/sixteenth/seed7":  "steps=744 sel=3 rounds=744 blocks=2033 reacts=2456 converged=true buf=[283 1741 1741 1738 0 297297] bytes=[2628216 138 866288 0] ops=[2498 16 744 0] ns=[14025520753 128001146 6187386 0] hash=c84dd15347298517",
	"prd/grid/delta/whole/seed0":      "steps=744 sel=0 rounds=744 blocks=2033 reacts=2456 converged=true buf=[2011 22 22 0 0 2139771] bytes=[789246 0 866288 0] ops=[767 0 744 0] ns=[189261141 0 6187386 0] hash=1392476376bb6415",
	"prd/grid/delta/whole/seed7":      "steps=744 sel=0 rounds=744 blocks=2033 reacts=2456 converged=true buf=[2011 22 22 0 0 2139771] bytes=[789246 0 866288 0] ops=[767 0 744 0] ns=[189261141 0 6187386 0] hash=1392476376bb6415",
	"prd/grid/raw/none/seed0":         "steps=744 sel=6 rounds=744 blocks=2033 reacts=2456 converged=true buf=[0 2017 0 0 2017 0] bytes=[5162256 288 866288 0] ops=[2794 10 744 0] ns=[16306414530 80002400 6187386 0] hash=d7750ca1077fabb4",
	"prd/grid/raw/none/seed7":         "steps=744 sel=6 rounds=744 blocks=2033 reacts=2456 converged=true buf=[0 2017 0 0 2017 0] bytes=[5162256 288 866288 0] ops=[2794 10 744 0] ns=[16306414530 80002400 6187386 0] hash=d7750ca1077fabb4",
	"prd/grid/raw/sixteenth/seed0":    "steps=744 sel=2 rounds=744 blocks=2033 reacts=2456 converged=true buf=[644 1383 641 634 742 247296] bytes=[4932786 96 866288 0] ops=[2139 3 744 0] ns=[11152884739 24000800 6187386 0] hash=83cb1d910ad76c73",
	"prd/grid/raw/sixteenth/seed7":    "steps=744 sel=2 rounds=744 blocks=2033 reacts=2456 converged=true buf=[644 1383 641 634 742 247296] bytes=[4932786 96 866288 0] ops=[2139 3 744 0] ns=[11152884739 24000800 6187386 0] hash=83cb1d910ad76c73",
	"prd/grid/raw/whole/seed0":        "steps=744 sel=0 rounds=744 blocks=2033 reacts=2456 converged=true buf=[2011 22 22 0 0 4375680] bytes=[813568 0 866288 0] ops=[767 0 744 0] ns=[189423290 0 6187386 0] hash=89cbb8091b569c9f",
	"prd/grid/raw/whole/seed7":        "steps=744 sel=0 rounds=744 blocks=2033 reacts=2456 converged=true buf=[2011 22 22 0 0 4375680] bytes=[813568 0 866288 0] ops=[767 0 744 0] ns=[189423290 0 6187386 0] hash=89cbb8091b569c9f",
	"prd/rmat/delta/none/seed0":       "steps=216 sel=15 rounds=216 blocks=864 reacts=5336 converged=true buf=[0 804 0 0 804 0] bytes=[1825928 6821 370592 0] ops=[1052 110 216 0] ns=[6580172411 880056811 2647024 0] hash=5fe7891b12fdb053",
	"prd/rmat/delta/none/seed7":       "steps=216 sel=15 rounds=216 blocks=864 reacts=5336 converged=true buf=[0 804 0 0 804 0] bytes=[1825928 6821 370592 0] ops=[1052 110 216 0] ns=[6580172411 880056811 2647024 0] hash=5fe7891b12fdb053",
	"prd/rmat/delta/sixteenth/seed0":  "steps=216 sel=12 rounds=216 blocks=864 reacts=5336 converged=true buf=[28 788 424 422 364 32298] bytes=[1827404 3876 370592 0] ops=[1033 86 216 0] ns=[6452182257 688032276 2647024 0] hash=33d4546332c3194e",
	"prd/rmat/delta/sixteenth/seed7":  "steps=216 sel=12 rounds=216 blocks=864 reacts=5336 converged=true buf=[28 788 424 422 364 32298] bytes=[1827404 3876 370592 0] ops=[1033 86 216 0] ns=[6452182257 688032276 2647024 0] hash=33d4546332c3194e",
	"prd/rmat/delta/whole/seed0":      "steps=216 sel=0 rounds=216 blocks=864 reacts=5336 converged=true buf=[848 16 16 0 0 1675833] bytes=[245585 0 370592 0] ops=[233 0 216 0] ns=[137637083 0 2647024 0] hash=ea04e5061ff15936",
	"prd/rmat/delta/whole/seed7":      "steps=216 sel=0 rounds=216 blocks=864 reacts=5336 converged=true buf=[848 16 16 0 0 1675833] bytes=[245585 0 370592 0] ops=[233 0 216 0] ns=[137637083 0 2647024 0] hash=ea04e5061ff15936",
	"prd/rmat/raw/none/seed0":         "steps=216 sel=15 rounds=216 blocks=864 reacts=5336 converged=true buf=[0 804 0 0 804 0] bytes=[3772373 16092 370592 0] ops=[1052 55 216 0] ns=[6593148972 440134100 2647024 0] hash=073c5692ebce169a",
	"prd/rmat/raw/none/seed7":         "steps=216 sel=15 rounds=216 blocks=864 reacts=5336 converged=true buf=[0 804 0 0 804 0] bytes=[3772373 16092 370592 0] ops=[1052 55 216 0] ns=[6593148972 440134100 2647024 0] hash=073c5692ebce169a",
	"prd/rmat/raw/sixteenth/seed0":    "steps=216 sel=13 rounds=216 blocks=864 reacts=5336 converged=true buf=[7 805 344 342 461 8868] bytes=[3797689 11244 370592 0] ops=[1047 47 216 0] ns=[6569317748 376093700 2647024 0] hash=9196b67c9b298ecb",
	"prd/rmat/raw/sixteenth/seed7":    "steps=216 sel=13 rounds=216 blocks=864 reacts=5336 converged=true buf=[7 805 344 342 461 8868] bytes=[3797689 11244 370592 0] ops=[1047 47 216 0] ns=[6569317748 376093700 2647024 0] hash=9196b67c9b298ecb",
	"prd/rmat/raw/whole/seed0":        "steps=216 sel=0 rounds=216 blocks=864 reacts=5336 converged=true buf=[848 16 16 0 0 3738804] bytes=[272384 0 370592 0] ops=[233 0 216 0] ns=[137815748 0 2647024 0] hash=be1ef0a5d2467892",
	"prd/rmat/raw/whole/seed7":        "steps=216 sel=0 rounds=216 blocks=864 reacts=5336 converged=true buf=[848 16 16 0 0 3738804] bytes=[272384 0 370592 0] ops=[233 0 216 0] ns=[137815748 0 2647024 0] hash=be1ef0a5d2467892",
	"sssp/grid/delta/none/seed0":      "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[0 38 0 0 38 0] bytes=[59076 0 38640 0] ops=[53 0 14 0] ns=[312393826 0 275994 0] hash=f0e374e0fff2e97a",
	"sssp/grid/delta/none/seed7":      "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[0 38 0 0 38 0] bytes=[59076 0 38640 0] ops=[53 0 14 0] ns=[312393826 0 275994 0] hash=f0e374e0fff2e97a",
	"sssp/grid/delta/sixteenth/seed0": "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[1 37 37 34 0 225] bytes=[58851 0 38640 0] ops=[52 0 14 0] ns=[304392326 0 275994 0] hash=0523bb4f9fa96b58",
	"sssp/grid/delta/sixteenth/seed7": "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[1 37 37 34 0 225] bytes=[58851 0 38640 0] ops=[52 0 14 0] ns=[304392326 0 275994 0] hash=0523bb4f9fa96b58",
	"sssp/grid/delta/whole/seed0":     "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[16 22 22 0 0 17350] bytes=[41726 0 38640 0] ops=[37 0 14 0] ns=[184278161 0 275994 0] hash=485e6b64c5372d0d",
	"sssp/grid/delta/whole/seed7":     "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[16 22 22 0 0 17350] bytes=[41726 0 38640 0] ops=[37 0 14 0] ns=[184278161 0 275994 0] hash=485e6b64c5372d0d",
	"sssp/grid/raw/none/seed0":        "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[0 38 0 0 38 0] bytes=[101568 0 38640 0] ops=[53 0 14 0] ns=[312677110 0 275994 0] hash=5d9a2cb7bdb2aeb0",
	"sssp/grid/raw/none/seed7":        "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[0 38 0 0 38 0] bytes=[101568 0 38640 0] ops=[53 0 14 0] ns=[312677110 0 275994 0] hash=5d9a2cb7bdb2aeb0",
	"sssp/grid/raw/sixteenth/seed0":   "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[6 32 18 11 14 2304] bytes=[99264 0 38640 0] ops=[47 0 14 0] ns=[264661750 0 275994 0] hash=2ca993ee2b5face0",
	"sssp/grid/raw/sixteenth/seed7":   "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[6 32 18 11 14 2304] bytes=[99264 0 38640 0] ops=[47 0 14 0] ns=[264661750 0 275994 0] hash=2ca993ee2b5face0",
	"sssp/grid/raw/whole/seed0":       "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[16 22 22 0 0 35520] bytes=[66048 0 38640 0] ops=[37 0 14 0] ns=[184440310 0 275994 0] hash=ece5e73b0aeb29ce",
	"sssp/grid/raw/whole/seed7":       "steps=14 sel=0 rounds=78 blocks=102 reacts=472 converged=true buf=[16 22 22 0 0 35520] bytes=[66048 0 38640 0] ops=[37 0 14 0] ns=[184440310 0 275994 0] hash=ece5e73b0aeb29ce",
	"sssp/rmat/delta/none/seed0":      "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[0 40 0 0 40 0] bytes=[73460 0 10784 0] ops=[51 0 10 0] ns=[328489711 0 77024 0] hash=b5f691a53728d305",
	"sssp/rmat/delta/none/seed7":      "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[0 40 0 0 40 0] bytes=[73460 0 10784 0] ops=[51 0 10 0] ns=[328489711 0 77024 0] hash=b5f691a53728d305",
	"sssp/rmat/delta/sixteenth/seed0": "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[0 40 29 26 11 0] bytes=[73460 0 10784 0] ops=[51 0 10 0] ns=[328489711 0 77024 0] hash=b5f691a53728d305",
	"sssp/rmat/delta/sixteenth/seed7": "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[0 40 29 26 11 0] bytes=[73460 0 10784 0] ops=[51 0 10 0] ns=[328489711 0 77024 0] hash=b5f691a53728d305",
	"sssp/rmat/delta/whole/seed0":     "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[24 16 16 0 0 38819] bytes=[34641 0 10784 0] ops=[27 0 10 0] ns=[136230927 0 77024 0] hash=66e4dec97533da0f",
	"sssp/rmat/delta/whole/seed7":     "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[24 16 16 0 0 38819] bytes=[34641 0 10784 0] ops=[27 0 10 0] ns=[136230927 0 77024 0] hash=66e4dec97533da0f",
	"sssp/rmat/raw/none/seed0":        "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[0 40 0 0 40 0] bytes=[147348 0 10784 0] ops=[51 0 10 0] ns=[328982311 0 77024 0] hash=d9f5266be34d2f43",
	"sssp/rmat/raw/none/seed7":        "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[0 40 0 0 40 0] bytes=[147348 0 10784 0] ops=[51 0 10 0] ns=[328982311 0 77024 0] hash=d9f5266be34d2f43",
	"sssp/rmat/raw/sixteenth/seed0":   "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[0 40 21 19 19 0] bytes=[147348 0 10784 0] ops=[51 0 10 0] ns=[328982311 0 77024 0] hash=d9f5266be34d2f43",
	"sssp/rmat/raw/sixteenth/seed7":   "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[0 40 21 19 19 0] bytes=[147348 0 10784 0] ops=[51 0 10 0] ns=[328982311 0 77024 0] hash=d9f5266be34d2f43",
	"sssp/rmat/raw/whole/seed0":       "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[24 16 16 0 0 85908] bytes=[61440 0 10784 0] ops=[27 0 10 0] ns=[136409592 0 77024 0] hash=0ae1e5fc5f7d2158",
	"sssp/rmat/raw/whole/seed7":       "steps=10 sel=0 rounds=20 blocks=50 reacts=96 converged=true buf=[24 16 16 0 0 85908] bytes=[61440 0 10784 0] ops=[27 0 10 0] ns=[136409592 0 77024 0] hash=0ae1e5fc5f7d2158",
}

// asyncPinLine renders an async run's pinned outcomes on one line.
func asyncPinLine(res *core.Result) string {
	h := fnv.New64a()
	for _, st := range res.IterStats {
		h.Write([]byte(st.Path))
		binary.Write(h, binary.LittleEndian, [4]int64{int64(st.Blocks), st.Reactivations, int64(math.Float64bits(st.Residual)), st.IO.TotalBytes()})
	}
	for _, v := range res.Outputs {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	a, b := res.Async, res.Buffer
	return fmt.Sprintf("steps=%d sel=%d rounds=%d blocks=%d reacts=%d converged=%t buf=[%d %d %d %d %d %d] bytes=%d ops=%d ns=%d hash=%016x",
		a.Steps, a.SelectiveSteps, a.Rounds, a.BlocksScheduled, a.Reactivations, res.Converged,
		b.Hits, b.Misses, b.Insertions, b.Evictions, b.Rejections, b.BytesSaved,
		res.IO.Bytes, res.IO.Ops, res.IO.Time, h.Sum64())
}

// TestAsyncSchedulePinned runs every case of pinnedAsync and holds each run
// to its line.
func TestAsyncSchedulePinned(t *testing.T) {
	rmat, err := gen.RMAT(9, 8, gen.Graph500, 13)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid", gen.Weighted(gen.Grid(32), 16, 5), 8},
		{"rmat", gen.Weighted(rmat, 16, 5), 4},
	}
	progs := []struct {
		name string
		mk   func() core.Program
	}{
		{"cc", func() core.Program { return &algorithms.ConnectedComponents{} }},
		{"bfs", func() core.Program { return &algorithms.BFS{Source: 0} }},
		{"sssp", func() core.Program { return &algorithms.SSSP{Source: 0} }},
		{"prd", func() core.Program { return &algorithms.PageRankDelta{Iterations: 200} }},
	}
	got := make(map[string]string)
	for _, gc := range graphs {
		for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
			var l *partition.Layout
			for _, pc := range progs {
				for bi, buf := range []string{"none", "sixteenth", "whole"} {
					for _, seed := range []uint64{0, 7} {
						if l == nil {
							l = codecLayout(t, gc.g, gc.p, codec)
						}
						capacity := [3]int64{0, l.Meta.EdgeBytesTotal() / 16, 2 * l.Meta.EdgeBytesTotal()}[bi]
						key := fmt.Sprintf("%s/%s/%s/%s/seed%d", pc.name, gc.name, codec, buf, seed)
						res, err := core.Run(l, pc.mk(), core.Options{Async: true, AsyncSeed: seed, BufferBytes: capacity})
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						got[key] = asyncPinLine(res)
					}
				}
			}
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != pinnedAsync[k] {
			t.Errorf("%q: %q,", k, got[k])
		}
	}
	if len(pinnedAsync) != len(got) {
		t.Errorf("%d pinned lines for %d cases", len(pinnedAsync), len(got))
	}
}
