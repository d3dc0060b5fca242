#include "textflag.h"
#include "go_asm.h"

// The SMO solver's two row passes, four rows per instruction (see
// smo_amd64.go). Row t of a block sits in lane t%4. Each lane runs the
// portable pass's comparisons over its own rows in ascending order, with
// the same floating-point operations in the same order and no FMA, so a
// lane keeps the first row that attains its best value; the caller
// reduces the four lanes with the lowest index on ties.
//
// n = len(f) is l rounded up to a multiple of 4: every block is whole,
// and the index sets have no bit at or above l, so rows l..n-1 are
// computed but never taken.
//
// Membership: lane k tests bit (t+k)%64 of word (t+k)/64 (one word per
// block, as 64 is a multiple of 4) by shifting the broadcast word left by
// 63-(t+k)%64, which puts the bit where VBLENDVPD reads its mask, the sign
// bit of the lane. A comparison's all-ones or all-zeros lanes ANDed with
// it keep exactly the rows that are members and pass the comparison.

DATA smoIota<>+0(SB)/8, $0
DATA smoIota<>+8(SB)/8, $1
DATA smoIota<>+16(SB)/8, $2
DATA smoIota<>+24(SB)/8, $3
GLOBL smoIota<>(SB), RODATA|NOPTR, $32

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
#define LT_OQ $0x11
#define LE_OQ $0x12
#define GT_OQ $0x1e

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   done

	// Leaf 1: ECX bit 27 OSXSAVE, bit 28 AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done

	// Leaf 7, subleaf 0: EBX bit 5 AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

// func updateAVX2(f, ki, kj []float64, wi, wj float64, upP, lowP, upN, lowN []uint64, out *smoLanes)
TEXT ·updateAVX2(SB), NOSPLIT, $0-192
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
	MOVQ out+184(FP), DI

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
	VMOVUPD Y13, smoLanes_gmaxP(DI)
	VMOVDQU Y12, smoLanes_ip(DI)
	VMOVUPD Y11, smoLanes_gmaxN(DI)
	VMOVDQU Y10, smoLanes_in(DI)
	VMOVUPD Y9, smoLanes_gminP(DI)
	VMOVUPD Y8, smoLanes_gminN(DI)
	VZEROUPPER
	RET

// func selectAVX2(f, ki []float64, low []uint64, gmax float64, out *smoPick)
TEXT ·selectAVX2(SB), NOSPLIT, $0-88
	MOVQ f_base+0(FP), SI
	MOVQ f_len+8(FP), BX
	MOVQ ki_base+24(FP), R8
	MOVQ low_base+48(FP), R10
	VBROADCASTSD gmax+72(FP), Y15
	MOVQ out+80(FP), DI

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
	VMOVUPD Y13, smoPick_obj(DI)
	VMOVDQU Y12, smoPick_j(DI)
	VZEROUPPER
	RET
