#include "textflag.h"

// The SMO solver's two row passes, eight rows per instruction with
// AVX-512 and four with AVX2 (see smo_amd64.go). Row t of a block sits in
// lane t%8 (t%4). Each lane runs the portable pass's comparisons over its
// own rows in ascending order, with the same floating-point operations in
// the same order and no FMA, so a lane keeps the first row that attains
// its best value. The kernel then folds its lanes in registers: at each
// step a lane takes its partner's value and row where they are better, or
// equal with a lower row, so every lane ends with the pass's answer and
// the lowest row on ties. Minima fold with MINPD and then add +0: lanes
// never hold NaN, and a zero minimum is reported as +0 (see updateRowsGo).
//
// n = len(f) is l rounded up to a multiple of 4, and the index sets have
// no bit at or above l, so rows l..n-1 are computed but never taken.
//
// AVX-512 membership: the 8 rows of a block starting at t (a multiple of
// 8) are the 8 bits of byte t/8 of the bitset, loaded straight into an
// opmask that is the write-mask of the block's comparisons. When n is not
// a multiple of 8 the last block has 4 rows: K7 masks the loads and the
// store of f to them, so nothing past f[n-1] or the 3 spare floats after
// K's last row is touched; its byte t/8 is in the bitset, as t < l.
//
// AVX2 membership: lane k tests bit (t+k)%64 of word (t+k)/64 (one word
// per block, as 64 is a multiple of 4) by shifting the broadcast word left
// by 63-(t+k)%64, which puts the bit where VBLENDVPD reads its mask, the
// sign bit of the lane. A comparison's all-ones or all-zeros lanes ANDed
// with it keep exactly the rows that are members and pass the comparison.

DATA smoIota<>+0(SB)/8, $0
DATA smoIota<>+8(SB)/8, $1
DATA smoIota<>+16(SB)/8, $2
DATA smoIota<>+24(SB)/8, $3
DATA smoIota<>+32(SB)/8, $4
DATA smoIota<>+40(SB)/8, $5
DATA smoIota<>+48(SB)/8, $6
DATA smoIota<>+56(SB)/8, $7
GLOBL smoIota<>(SB), RODATA|NOPTR, $64

DATA smoFour<>+0(SB)/8, $4
DATA smoFour<>+8(SB)/8, $4
DATA smoFour<>+16(SB)/8, $4
DATA smoFour<>+24(SB)/8, $4
GLOBL smoFour<>(SB), RODATA|NOPTR, $32

DATA smoBit<>+0(SB)/8, $63
DATA smoBit<>+8(SB)/8, $63
DATA smoBit<>+16(SB)/8, $63
DATA smoBit<>+24(SB)/8, $63
GLOBL smoBit<>(SB), RODATA|NOPTR, $32

DATA smoEight<>+0(SB)/8, $8
GLOBL smoEight<>(SB), RODATA|NOPTR, $8
DATA smoNegInf<>+0(SB)/8, $0xfff0000000000000
GLOBL smoNegInf<>(SB), RODATA|NOPTR, $8
DATA smoPosInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL smoPosInf<>(SB), RODATA|NOPTR, $8
DATA smoTwo<>+0(SB)/8, $0x4000000000000000
GLOBL smoTwo<>(SB), RODATA|NOPTR, $8
DATA smoTau<>+0(SB)/8, $0x3d719799812dea11 // 1e-12
GLOBL smoTau<>(SB), RODATA|NOPTR, $8
DATA smoSign<>+0(SB)/8, $0x8000000000000000
GLOBL smoSign<>(SB), RODATA|NOPTR, $8

// Comparison predicates: ordered and quiet, false on NaN as Go's are.
#define EQ_OQ $0x00
#define LT_OQ $0x11
#define LE_OQ $0x12
#define GT_OQ $0x1e

// BEST8 moves into each lane of values v and rows r its partner's value
// Z1 and row Z2 where pred(Z1, v) holds, or Z1 == v and Z2 < r.
#define BEST8(pred, v, r) \
	VCMPPD    pred, v, Z1, K2; \
	VCMPPD    EQ_OQ, v, Z1, K3; \
	VPCMPQ    $1, r, Z2, K3, K3; \
	KORB      K3, K2, K2; \
	VMOVAPD   Z1, K2, v; \
	VMOVDQA64 Z2, K2, r

// FOLD8 leaves in every lane the best of v's 8 values by pred, with its
// row, the lowest row on ties: partners 4, 2, then 1 lane apart.
#define FOLD8(pred, v, r) \
	VSHUFF64X2 $0x4e, v, v, Z1; \
	VSHUFI64X2 $0x4e, r, r, Z2; \
	BEST8(pred, v, r); \
	VSHUFF64X2 $0xb1, v, v, Z1; \
	VSHUFI64X2 $0xb1, r, r, Z2; \
	BEST8(pred, v, r); \
	VPERMILPD  $0x55, v, Z1; \
	VPERMILPD  $0x55, r, Z2; \
	BEST8(pred, v, r)

// MIN8 leaves in lane 0 of v the least of its 8 values.
#define MIN8(v) \
	VSHUFF64X2 $0x4e, v, v, Z1; \
	VMINPD     Z1, v, v; \
	VSHUFF64X2 $0xb1, v, v, Z1; \
	VMINPD     Z1, v, v; \
	VPERMILPD  $0x55, v, Z1; \
	VMINPD     Z1, v, v

// BEST4, FOLD4 and MIN4 are BEST8, FOLD8 and MIN8 on 4 lanes, with
// Y3-Y5 for masks.
#define BEST4(pred, v, r) \
	VCMPPD    pred, v, Y1, Y3; \
	VCMPPD    EQ_OQ, v, Y1, Y4; \
	VPCMPGTQ  Y2, r, Y5; \
	VANDPD    Y5, Y4, Y4; \
	VORPD     Y4, Y3, Y3; \
	VBLENDVPD Y3, Y1, v, v; \
	VBLENDVPD Y3, Y2, r, r

#define FOLD4(pred, v, r) \
	VPERMPD   $0x4e, v, Y1; \
	VPERMQ    $0x4e, r, Y2; \
	BEST4(pred, v, r); \
	VPERMILPD $0x5, v, Y1; \
	VPSHUFD   $0x4e, r, Y2; \
	BEST4(pred, v, r)

#define MIN4(v) \
	VPERMPD   $0x4e, v, Y1; \
	VMINPD    Y1, v, v; \
	VPERMILPD $0x5, v, Y1; \
	VMINPD    Y1, v, v

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

// func updateAVX512(f, ki, kj []float64, wi, wj float64, upP, lowP, upN, lowN []uint64) (gmaxP float64, ip int, gmaxN float64, in int, gminP, gminN float64)
TEXT ·updateAVX512(SB), NOSPLIT, $0-232
	MOVQ f_base+0(FP), SI
	MOVQ f_len+8(FP), BX
	MOVQ ki_base+24(FP), R8
	MOVQ kj_base+48(FP), R9
	VBROADCASTSD wi+72(FP), Z15
	VBROADCASTSD wj+80(FP), Z14
	MOVQ upP_base+88(FP), R10
	MOVQ lowP_base+112(FP), R11
	MOVQ upN_base+136(FP), R12
	MOVQ lowN_base+160(FP), R13

	VBROADCASTSD smoNegInf<>(SB), Z13 // gmaxP
	VPTERNLOGQ   $0xff, Z12, Z12, Z12 // ip = -1
	VMOVAPD      Z13, Z11             // gmaxN
	VMOVDQA64    Z12, Z10             // in = -1
	VBROADCASTSD smoPosInf<>(SB), Z9  // gminP
	VMOVAPD      Z9, Z8               // gminN
	VMOVDQU64    smoIota<>(SB), Z7    // the block's row indices
	VPBROADCASTQ smoEight<>(SB), Z6
	KXNORB       K7, K7, K7           // all 8 rows of a block

	XORQ AX, AX
	JMP  upd8check

upd8loop:
	MOVQ AX, CX
	SHRQ $3, CX

	// f[t] -= wi*ki[t] + wj*kj[t]
	VMOVUPD.Z (R8)(AX*8), K7, Z0
	VMULPD    Z15, Z0, Z0
	VMOVUPD.Z (R9)(AX*8), K7, Z1
	VMULPD    Z14, Z1, Z1
	VADDPD    Z1, Z0, Z0
	VMOVUPD.Z (SI)(AX*8), K7, Z1
	VSUBPD    Z0, Z1, Z0
	VMOVUPD   Z0, K7, (SI)(AX*8)

	// Largest f over I_up of sign +1.
	KMOVB     (R10)(CX*1), K1
	VCMPPD    GT_OQ, Z13, Z0, K1, K2
	VMOVAPD   Z0, K2, Z13
	VMOVDQA64 Z7, K2, Z12

	// Largest f over I_up of sign -1.
	KMOVB     (R12)(CX*1), K1
	VCMPPD    GT_OQ, Z11, Z0, K1, K2
	VMOVAPD   Z0, K2, Z11
	VMOVDQA64 Z7, K2, Z10

	// Smallest f over I_low of sign +1.
	KMOVB   (R11)(CX*1), K1
	VCMPPD  LT_OQ, Z9, Z0, K1, K2
	VMOVAPD Z0, K2, Z9

	// Smallest f over I_low of sign -1.
	KMOVB   (R13)(CX*1), K1
	VCMPPD  LT_OQ, Z8, Z0, K1, K2
	VMOVAPD Z0, K2, Z8

	VPADDQ Z6, Z7, Z7
	ADDQ   $8, AX

upd8check:
	MOVQ BX, CX
	SUBQ AX, CX
	CMPQ CX, $8
	JGE  upd8loop
	CMPQ CX, $0
	JLE  upd8fold
	// Four rows are left: one more block with the upper four lanes off.
	MOVL  $0x0f, CX
	KMOVB CX, K7
	JMP   upd8loop

upd8fold:
	FOLD8(GT_OQ, Z13, Z12)
	FOLD8(GT_OQ, Z11, Z10)
	MIN8(Z9)
	MIN8(Z8)
	VXORPD X0, X0, X0
	VADDSD X0, X9, X9
	VADDSD X0, X8, X8
	VMOVSD X13, gmaxP+184(FP)
	VMOVQ  X12, ip+192(FP)
	VMOVSD X11, gmaxN+200(FP)
	VMOVQ  X10, in+208(FP)
	VMOVSD X9, gminP+216(FP)
	VMOVSD X8, gminN+224(FP)
	VZEROUPPER
	RET

// func selectAVX512(f, ki []float64, low []uint64, gmax float64) (obj float64, j int)
TEXT ·selectAVX512(SB), NOSPLIT, $0-96
	MOVQ f_base+0(FP), SI
	MOVQ f_len+8(FP), BX
	MOVQ ki_base+24(FP), R8
	MOVQ low_base+48(FP), R10
	VBROADCASTSD gmax+72(FP), Z15

	VBROADCASTSD smoTwo<>(SB), Z14
	VBROADCASTSD smoPosInf<>(SB), Z13 // objMin
	VPTERNLOGQ   $0xff, Z12, Z12, Z12 // j = -1
	VBROADCASTSD smoTau<>(SB), Z11
	VBROADCASTSD smoSign<>(SB), Z10
	VXORPD       X9, X9, X9
	VMOVDQU64    smoIota<>(SB), Z7
	VPBROADCASTQ smoEight<>(SB), Z6
	KXNORB       K7, K7, K7

	XORQ AX, AX
	JMP  sel8check

sel8loop:
	MOVQ AX, CX
	SHRQ $3, CX

	VMOVUPD.Z (SI)(AX*8), K7, Z0
	VSUBPD    Z0, Z15, Z0 // b = gmax - f[t]

	// quad = 2 - 2*K_it, tau where it is not positive. 2*K is K+K.
	VMOVUPD.Z (R8)(AX*8), K7, Z1
	VADDPD    Z1, Z1, Z1
	VSUBPD    Z1, Z14, Z1
	VCMPPD    LE_OQ, Z9, Z1, K2
	VMOVAPD   Z11, K2, Z1

	// obj = -b*b/quad
	VXORPD Z10, Z0, Z2
	VMULPD Z0, Z2, Z2
	VDIVPD Z1, Z2, Z2

	// Taken where t is in I_low, b > 0 and obj < objMin.
	KMOVB     (R10)(CX*1), K1
	VCMPPD    GT_OQ, Z9, Z0, K1, K2
	VCMPPD    LT_OQ, Z13, Z2, K2, K2
	VMOVAPD   Z2, K2, Z13
	VMOVDQA64 Z7, K2, Z12

	VPADDQ Z6, Z7, Z7
	ADDQ   $8, AX

sel8check:
	MOVQ BX, CX
	SUBQ AX, CX
	CMPQ CX, $8
	JGE  sel8loop
	CMPQ CX, $0
	JLE  sel8fold
	MOVL  $0x0f, CX
	KMOVB CX, K7
	JMP   sel8loop

sel8fold:
	FOLD8(LT_OQ, Z13, Z12)
	VMOVSD X13, obj+80(FP)
	VMOVQ  X12, j+88(FP)
	VZEROUPPER
	RET

// func updateAVX2(f, ki, kj []float64, wi, wj float64, upP, lowP, upN, lowN []uint64) (gmaxP float64, ip int, gmaxN float64, in int, gminP, gminN float64)
TEXT ·updateAVX2(SB), NOSPLIT, $0-232
	MOVQ f_base+0(FP), SI
	MOVQ f_len+8(FP), BX
	MOVQ ki_base+24(FP), R8
	MOVQ kj_base+48(FP), R9
	VBROADCASTSD wi+72(FP), Y15
	VBROADCASTSD wj+80(FP), Y14
	MOVQ upP_base+88(FP), R10
	MOVQ lowP_base+112(FP), R11
	MOVQ upN_base+136(FP), R12
	MOVQ lowN_base+160(FP), R13

	VBROADCASTSD smoNegInf<>(SB), Y13 // gmaxP
	VPCMPEQQ     Y12, Y12, Y12        // ip = -1
	VMOVAPD      Y13, Y11             // gmaxN
	VMOVDQA      Y12, Y10             // in = -1
	VBROADCASTSD smoPosInf<>(SB), Y9  // gminP
	VMOVAPD      Y9, Y8               // gminN
	VMOVDQU      smoIota<>(SB), Y7    // the block's row indices
	VMOVDQU      smoBit<>(SB), Y6

	XORQ AX, AX
	TESTQ BX, BX
	JZ   store

updloop:
	MOVQ AX, CX
	SHRQ $6, CX

	// f[t] -= wi*ki[t] + wj*kj[t]
	VMULPD  (R8)(AX*8), Y15, Y0
	VMULPD  (R9)(AX*8), Y14, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD  Y0, Y1, Y0
	VMOVUPD Y0, (SI)(AX*8)

	VPANDN Y6, Y7, Y5 // 63 - t%64 per lane

	// Largest f over I_up of sign +1.
	VPBROADCASTQ (R10)(CX*8), Y1
	VPSLLVQ      Y5, Y1, Y1
	VCMPPD       GT_OQ, Y13, Y0, Y2
	VANDPD       Y1, Y2, Y2
	VBLENDVPD    Y2, Y0, Y13, Y13
	VBLENDVPD    Y2, Y7, Y12, Y12

	// Largest f over I_up of sign -1.
	VPBROADCASTQ (R12)(CX*8), Y1
	VPSLLVQ      Y5, Y1, Y1
	VCMPPD       GT_OQ, Y11, Y0, Y2
	VANDPD       Y1, Y2, Y2
	VBLENDVPD    Y2, Y0, Y11, Y11
	VBLENDVPD    Y2, Y7, Y10, Y10

	// Smallest f over I_low of sign +1.
	VPBROADCASTQ (R11)(CX*8), Y1
	VPSLLVQ      Y5, Y1, Y1
	VCMPPD       LT_OQ, Y9, Y0, Y2
	VANDPD       Y1, Y2, Y2
	VBLENDVPD    Y2, Y0, Y9, Y9

	// Smallest f over I_low of sign -1.
	VPBROADCASTQ (R13)(CX*8), Y1
	VPSLLVQ      Y5, Y1, Y1
	VCMPPD       LT_OQ, Y8, Y0, Y2
	VANDPD       Y1, Y2, Y2
	VBLENDVPD    Y2, Y0, Y8, Y8

	VPADDQ smoFour<>(SB), Y7, Y7
	ADDQ   $4, AX
	CMPQ   AX, BX
	JB     updloop

store:
	FOLD4(GT_OQ, Y13, Y12)
	FOLD4(GT_OQ, Y11, Y10)
	MIN4(Y9)
	MIN4(Y8)
	VXORPD X0, X0, X0
	VADDSD X0, X9, X9
	VADDSD X0, X8, X8
	VMOVSD X13, gmaxP+184(FP)
	VMOVQ  X12, ip+192(FP)
	VMOVSD X11, gmaxN+200(FP)
	VMOVQ  X10, in+208(FP)
	VMOVSD X9, gminP+216(FP)
	VMOVSD X8, gminN+224(FP)
	VZEROUPPER
	RET

// func selectAVX2(f, ki []float64, low []uint64, gmax float64) (obj float64, j int)
TEXT ·selectAVX2(SB), NOSPLIT, $0-96
	MOVQ f_base+0(FP), SI
	MOVQ f_len+8(FP), BX
	MOVQ ki_base+24(FP), R8
	MOVQ low_base+48(FP), R10
	VBROADCASTSD gmax+72(FP), Y15

	VBROADCASTSD smoTwo<>(SB), Y14
	VBROADCASTSD smoPosInf<>(SB), Y13 // objMin
	VPCMPEQQ     Y12, Y12, Y12        // j = -1
	VBROADCASTSD smoTau<>(SB), Y11
	VBROADCASTSD smoSign<>(SB), Y10
	VXORPD       Y9, Y9, Y9
	VMOVDQU      smoIota<>(SB), Y7
	VMOVDQU      smoBit<>(SB), Y6

	XORQ AX, AX
	TESTQ BX, BX
	JZ   pick

selloop:
	MOVQ AX, CX
	SHRQ $6, CX

	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  Y0, Y15, Y0 // b = gmax - f[t]

	// quad = 2 - 2*K_it, tau where it is not positive. 2*K is K+K.
	VMOVUPD   (R8)(AX*8), Y1
	VADDPD    Y1, Y1, Y1
	VSUBPD    Y1, Y14, Y1
	VCMPPD    LE_OQ, Y9, Y1, Y2
	VBLENDVPD Y2, Y11, Y1, Y1

	// obj = -b*b/quad
	VXORPD Y10, Y0, Y2
	VMULPD Y0, Y2, Y2
	VDIVPD Y1, Y2, Y2

	// Taken where obj < objMin, b > 0 and t is in I_low.
	VCMPPD       LT_OQ, Y13, Y2, Y3
	VCMPPD       GT_OQ, Y9, Y0, Y4
	VANDPD       Y4, Y3, Y3
	VPANDN       Y6, Y7, Y5
	VPBROADCASTQ (R10)(CX*8), Y4
	VPSLLVQ      Y5, Y4, Y4
	VANDPD       Y4, Y3, Y3
	VBLENDVPD    Y3, Y2, Y13, Y13
	VBLENDVPD    Y3, Y7, Y12, Y12

	VPADDQ smoFour<>(SB), Y7, Y7
	ADDQ   $4, AX
	CMPQ   AX, BX
	JB     selloop

pick:
	FOLD4(LT_OQ, Y13, Y12)
	VMOVSD X13, obj+80(FP)
	VMOVQ  X12, j+88(FP)
	VZEROUPPER
	RET
