#include "apps/apps.h"

#include "common/error.h"
#include "sim/memory_map.h"

namespace eilid::apps {
namespace {

// Shared MMIO name block prepended to every app.
const char* kEqus = R"(; ---- device register map ----
.equ TIMER_CTL, 0x0100
.equ TIMER_CCR0, 0x0102
.equ TIMER_COUNT, 0x0104
.equ TIMER_FLAGS, 0x0106
.equ ADC_CTL, 0x0110
.equ ADC_MEM, 0x0112
.equ ADC_STAT, 0x0114
.equ P1IN, 0x0120
.equ P1OUT, 0x0122
.equ P1DIR, 0x0124
.equ P2IN, 0x0128
.equ P2OUT, 0x012A
.equ P2DIR, 0x012C
.equ UART_TX, 0x0130
.equ UART_RX, 0x0132
.equ UART_STAT, 0x0134
.equ US_TRIG, 0x0140
.equ US_ECHO, 0x0142
.equ US_STAT, 0x0144
.equ LCD_CMD, 0x0150
.equ LCD_DATA, 0x0152
)";

// Standard startup: set SP, zero the working RAM window. The first
// instruction after `main:` must set SP (the instrumenter inserts its
// boot block after it).
const char* kCrt0 = R"(main:
    mov #0x1000, r1
    mov #0x0200, r11
crt_clr:
    clr 0(r11)
    incd r11
    cmp #0x0240, r11
    jnz crt_clr
)";

// ---------------------------------------------------------------- //
const char* kLightSensor = R"(; light_sensor: 4x-oversampled ADC
; sampling, 8-sample ring filter with min/max, hysteresis LED, framed
; UART reports with XOR checksum; a background timer ISR maintains a
; timestamp counter that is embedded in each frame.
.equ SEQ, 0x0202
.equ RIDX, 0x0204
.equ LEDST, 0x0206
.equ TIMESTAMP, 0x0208
.equ RING, 0x0210
.equ PKT, 0x0220
.org 0xE000
%CRT0%
    mov #0xff, &P1DIR
    mov #5000, &TIMER_CCR0
    mov #3, &TIMER_CTL          ; enable + irq
    eint
    mov #16, r10                ; 16 report frames
loop:
    call #process_sample
    dec r10
    jnz loop
    dint
halt:
    jmp halt

; One frame of work: oversample ADC ch0 4x, push the average into the
; 8-entry ring, rescan for sum/min/max, drive the LED with hysteresis,
; emit frame AA seq avg min max ts crc (crc = xor of first six bytes).
process_sample:
    clr r13
    mov #4, r14
ps_ovs:
    mov #0x100, &ADC_CTL
ps_w:
    tst &ADC_STAT
    jz ps_w
    add &ADC_MEM, r13
    dec r14
    jnz ps_ovs
    rra r13
    rra r13
    mov r13, r9
    mov &RIDX, r14
    mov r14, r15
    rla r15
    mov r9, RING(r15)
    inc r14
    and #7, r14
    mov r14, &RIDX
    clr r11
    mov #0x7fff, r12
    mov #0x8000, r13
    clr r15
ps_scan:
    mov RING(r15), r9
    add r9, r11
    cmp r12, r9
    jge ps_cmax
    mov r9, r12
ps_cmax:
    cmp r13, r9
    jl ps_next
    mov r9, r13
ps_next:
    incd r15
    cmp #16, r15
    jnz ps_scan
    mov r11, r9
    rra r9
    rra r9
    rra r9
    tst &LEDST
    jnz ps_on
    cmp #0x90, r9
    jl ps_led_done
    mov #1, &LEDST
    bis #1, &P1OUT
    jmp ps_led_done
ps_on:
    cmp #0x70, r9
    jge ps_led_done
    clr &LEDST
    bic #1, &P1OUT
ps_led_done:
    mov #PKT, r14
    mov.b #0xaa, 0(r14)
    mov &SEQ, r15
    mov.b r15, 1(r14)
    inc &SEQ
    mov.b r9, 2(r14)
    mov.b r12, 3(r14)
    mov.b r13, 4(r14)
    mov &TIMESTAMP, r15
    mov.b r15, 5(r14)
    clr r15
    clr r11
ps_crc:
    mov.b PKT(r11), r13
    xor r13, r15
    inc r11
    cmp #6, r11
    jnz ps_crc
    mov.b r15, 6(r14)
    clr r11
ps_tx:
    mov.b PKT(r11), r15
    mov.b r15, &UART_TX
    inc r11
    cmp #7, r11
    jnz ps_tx
    ret

timer_isr:
    inc &TIMESTAMP
    reti

.vector 15, main
.vector 8, timer_isr
.end
)";

void setup_light(sim::Machine& m) {
  m.adc().set_channel_series(
      0, {0x20, 0x40, 0x90, 0xA0, 0xC0, 0x70, 0x30, 0x10, 0x50, 0xB0, 0xD0,
          0xF0, 0x60, 0x55, 0x45, 0x35});
}

std::string check_light(sim::Machine& m) {
  if (m.adc().conversions_done() != 64) return "expected 64 conversions";
  const auto& tx = m.uart().tx_log();
  if (tx.size() != 112) {
    return "expected 112 tx bytes, got " + std::to_string(tx.size());
  }
  for (size_t f = 0; f < 16; ++f) {
    const uint8_t* p = tx.data() + 7 * f;
    if (p[0] != 0xAA) return "bad frame marker";
    if (p[1] != f) return "bad sequence number";
    uint8_t crc = 0;
    for (int i = 0; i < 6; ++i) crc = static_cast<uint8_t>(crc ^ p[i]);
    if (crc != p[6]) return "bad frame checksum";
  }
  return "";
}

// ---------------------------------------------------------------- //
const char* kUltrasonicRanger = R"(; ultrasonic_ranger: triple pings with
; median filtering, zone classification with LED patterns, framed
; reports.
.equ SEQ, 0x0202
.equ S3, 0x0210
.org 0xE000
%CRT0%
    mov #0xff, &P1DIR
    mov #8, r10                 ; 8 measurement rounds
loop:
    call #measure               ; r9 = median echo width
    call #classify_report
    dec r10
    jnz loop
halt:
    jmp halt

; Three pings, median-of-3 (unsigned compares: widths exceed 32767).
measure:
    clr r14
me_ping:
    mov #1, &US_TRIG
me_w:
    tst &US_STAT
    jz me_w
    mov &US_ECHO, r9
    mov r14, r15
    rla r15
    mov r9, S3(r15)
    inc r14
    cmp #3, r14
    jnz me_ping
    mov &S3, r11
    mov &S3+2, r12
    mov &S3+4, r13
    cmp r11, r12                ; ensure r11 <= r12 (unsigned)
    jc me_ab
    mov r11, r15
    mov r12, r11
    mov r15, r12
me_ab:
    cmp r12, r13                ; ensure r12 <= r13
    jc me_bc
    mov r12, r15
    mov r13, r12
    mov r15, r13
me_bc:
    cmp r11, r12
    jc me_done
    mov r11, r15
    mov r12, r11
    mov r15, r12
me_done:
    mov r12, r9
    ret

; width -> cm (unsigned repeated subtraction), zone LEDs, frame:
; BB seq cm_lo cm_hi crc.
classify_report:
    clr r11
cr_div:
    cmp #470, r9
    jnc cr_zone
    sub #470, r9
    inc r11
    jmp cr_div
cr_zone:
    cmp #10, r11
    jge cr_mid
    mov #0x03, &P1OUT
    jmp cr_pkt
cr_mid:
    cmp #30, r11
    jge cr_far
    mov #0x01, &P1OUT
    jmp cr_pkt
cr_far:
    clr &P1OUT
cr_pkt:
    mov.b #0xbb, &UART_TX
    mov &SEQ, r15
    mov.b r15, &UART_TX
    inc &SEQ
    mov.b r11, &UART_TX
    mov r11, r14
    swpb r14
    mov.b r14, &UART_TX
    mov.b r15, r12
    xor #0xbb, r12
    mov.b r11, r13
    xor r13, r12
    mov.b r14, r13
    xor r13, r12
    mov.b r12, &UART_TX
    ret

.vector 15, main
.end
)";

void setup_ranger(sim::Machine& m) {
  // Triples per round: median is the middle sample.
  m.ranger().set_distances_mm({1200, 1260, 1180, 820, 800, 790, 410, 400, 395,
                               160, 150, 140, 60, 65, 55, 95, 90, 85, 500, 505,
                               495, 1000, 1010, 990});
}

std::string check_ranger(sim::Machine& m) {
  if (m.ranger().pings() != 24) return "expected 24 pings";
  const auto& tx = m.uart().tx_log();
  if (tx.size() != 40) return "expected 8 frames of 5 bytes";
  // Round 3 median 150mm: 150*47/470 = 15 cm.
  if (tx[3 * 5 + 2] != 15) return "wrong median distance";
  if (tx[0] != 0xBB) return "bad frame marker";
  return "";
}

// ---------------------------------------------------------------- //
const char* kFireSensor = R"(; fire_sensor: 2x-oversampled flame +
; temperature EWMA fusion, fused-score history ring, hysteresis alarm
; FSM with buzzer pattern table, UART alerts; background timestamp ISR.
.equ ALARM, 0x0202
.equ EWMA_F, 0x0204
.equ EWMA_T, 0x0206
.equ PATIDX, 0x0208
.equ TIMESTAMP, 0x020A
.equ HIDX, 0x020C
.equ HIST, 0x0210
.org 0xE000
%CRT0%
    mov #0xff, &P1DIR
    mov #6000, &TIMER_CCR0
    mov #3, &TIMER_CTL
    eint
    mov #12, r10
loop:
    call #sense_and_alarm       ; full processing round
    dec r10
    jnz loop
    dint
halt:
    jmp halt

; EWMA per channel over 2x-oversampled reads: e = (3e + raw)/4;
; fused = ewma_f + ewma_t/2, smoothed over an 8-entry history ring;
; hysteresis alarm (raise >= 0x180, clear < 0x100) with buzzer pattern.
sense_and_alarm:
    clr r9
    mov #2, r14
sa_f:
    mov #0x102, &ADC_CTL
sa_w1:
    tst &ADC_STAT
    jz sa_w1
    add &ADC_MEM, r9
    dec r14
    jnz sa_f
    rra r9                      ; flame = avg of 2
    mov &EWMA_F, r12
    mov r12, r13
    rla r13
    add r12, r13
    add r9, r13
    rra r13
    rra r13
    mov r13, &EWMA_F
    clr r9
    mov #2, r14
sa_t:
    mov #0x101, &ADC_CTL
sa_w2:
    tst &ADC_STAT
    jz sa_w2
    add &ADC_MEM, r9
    dec r14
    jnz sa_t
    rra r9                      ; temp = avg of 2
    mov &EWMA_T, r12
    mov r12, r13
    rla r13
    add r12, r13
    add r9, r13
    rra r13
    rra r13
    mov r13, &EWMA_T
    mov &EWMA_T, r9
    rra r9
    add &EWMA_F, r9             ; fused score
    mov &HIDX, r14
    mov r14, r15
    rla r15
    mov r9, HIST(r15)
    inc r14
    and #7, r14
    mov r14, &HIDX
    clr r11
    clr r15
sa_hsum:
    add HIST(r15), r11
    incd r15
    cmp #16, r15
    jnz sa_hsum
    rra r11
    rra r11
    rra r11                     ; smoothed history average (telemetry;
                                ; the instantaneous score drives the FSM)
    tst &ALARM
    jnz sa_on
    cmp #0x180, r9
    jl sa_done
    mov #1, &ALARM
    clr &PATIDX
    mov.b #'A', &UART_TX
sa_done:
    ret
sa_on:
    cmp #0x100, r9
    jge sa_buzz
    clr &ALARM
    bic #6, &P1OUT
    mov.b #'a', &UART_TX
    ret
sa_buzz:
    mov &PATIDX, r14
    mov r14, r15
    rla r15
    mov buzz_pat(r15), r13
    mov r13, &P1OUT
    inc r14
    and #3, r14
    mov r14, &PATIDX
    mov.b r9, &UART_TX
    ret
buzz_pat:
    .word 0x02, 0x06, 0x04, 0x06

timer_isr:
    inc &TIMESTAMP
    reti

.vector 15, main
.vector 8, timer_isr
.end
)";

void setup_fire(sim::Machine& m) {
  std::vector<uint16_t> flame;
  for (int i = 0; i < 6; ++i) flame.push_back(0x10);
  for (int i = 0; i < 10; ++i) flame.push_back(0x300);
  for (int i = 0; i < 8; ++i) flame.push_back(0x10);
  m.adc().set_channel_series(2, flame);
  m.adc().set_channel_series(1, std::vector<uint16_t>(24, 0x60));
}

std::string check_fire(sim::Machine& m) {
  std::string tx = m.uart().tx_text();
  size_t raised = tx.find('A');
  size_t cleared = tx.find('a');
  if (raised == std::string::npos) return "alarm never raised";
  if (cleared == std::string::npos) return "alarm never cleared";
  if (cleared < raised) return "alarm cleared before raised";
  return "";
}

// ---------------------------------------------------------------- //
const char* kSyringePump = R"(; syringe_pump: UART command interpreter
; with indirect dispatch (function pointers), bounds-checked stepper
; motion with pulse timing.
.equ POSITION, 0x0202
.org 0xE000
.func cmd_dispense
.func cmd_withdraw
.func cmd_status
%CRT0%
    mov #0xff, &P1DIR
cmd_loop:
    mov &UART_STAT, r9
    bit #1, r9
    jz done
    mov &UART_RX, r9            ; command byte
    mov #cmd_dispense, r13
    cmp #'D', r9
    jz have
    mov #cmd_withdraw, r13
    cmp #'W', r9
    jz have
    mov #cmd_status, r13
    cmp #'S', r9
    jz have
    jmp cmd_loop                ; unknown bytes are skipped
have:
    mov &UART_STAT, r9
    bit #1, r9
    jz noarg
    mov &UART_RX, r9            ; argument byte
    jmp dispatch
noarg:
    clr r9
dispatch:
    call r13                    ; indirect dispatch (P3 site)
    jmp cmd_loop
done:
halt:
    jmp halt

cmd_dispense:                   ; r9 = steps forward, bounded at 256
    mov &POSITION, r12
    add r9, r12
    cmp #0x100, r12
    jge cd_err
cd_loop:
    tst r9
    jz cd_ok
    bis #4, &P1OUT
    mov #100, r14
cd_d1:
    dec r14
    jnz cd_d1
    bic #4, &P1OUT
    mov #100, r14
cd_d2:
    dec r14
    jnz cd_d2
    inc &POSITION
    dec r9
    jmp cd_loop
cd_ok:
    mov.b #'d', &UART_TX
    ret
cd_err:
    mov.b #'E', &UART_TX
    ret

cmd_withdraw:                   ; r9 = steps back, bounded at 0
    cmp r9, &POSITION
    jl cw_err
cw_loop:
    tst r9
    jz cw_ok
    bis #8, &P1OUT
    mov #100, r14
cw_d1:
    dec r14
    jnz cw_d1
    bic #8, &P1OUT
    mov #100, r14
cw_d2:
    dec r14
    jnz cw_d2
    dec &POSITION
    dec r9
    jmp cw_loop
cw_ok:
    mov.b #'w', &UART_TX
    ret
cw_err:
    mov.b #'E', &UART_TX
    ret

cmd_status:                     ; report 16-bit position, little endian
    mov &POSITION, r15
    mov.b r15, &UART_TX
    mov r15, r14
    swpb r14
    mov.b r14, &UART_TX
    ret

.vector 15, main
.end
)";

void setup_pump(sim::Machine& m) {
  // dispense 8, withdraw 3, status (arg 0), withdraw 9 (out of bounds).
  m.uart().feed(std::string("D\x08") + "W\x03" + std::string("S\x00", 2) +
                "W\x09");
}

std::string check_pump(sim::Machine& m) {
  std::string tx = m.uart().tx_text();
  std::string expect = std::string("dw") + '\x05' + '\x00' + 'E';
  if (tx != expect) return "bad pump transcript";
  return "";
}

// ---------------------------------------------------------------- //
const char* kTempSensor = R"(; temp_sensor: Celsius conversion, min/max
; and running-sum statistics, Fahrenheit companion output.
.equ MIN_V, 0x0204
.equ MAX_V, 0x0206
.equ SUM_V, 0x0208
.equ CNT_V, 0x020A
.org 0xE000
%CRT0%
    mov #0x7fff, &MIN_V
    mov #0x8000, &MAX_V
    mov #16, r10
loop:
    call #sample_report         ; acquire + stats + report
    mov #300, r14
pc_l:
    dec r14
    jnz pc_l
    dec r10
    jnz loop
halt:
    jmp halt

; C = raw/4 - 40; update min/max/sum stats; emit 'T' C F with
; F = 9C/5 + 32 (division by repeated subtraction).
sample_report:
    mov #0x101, &ADC_CTL
aw:
    tst &ADC_STAT
    jz aw
    mov &ADC_MEM, r9
    rra r9
    rra r9
    sub #40, r9
    cmp &MIN_V, r9
    jge aq_max
    mov r9, &MIN_V
aq_max:
    cmp &MAX_V, r9
    jl aq_sum
    mov r9, &MAX_V
aq_sum:
    add r9, &SUM_V
    inc &CNT_V
    mov r9, r12
    rla r12
    rla r12
    rla r12
    add r9, r12
    clr r13
rp_div5:
    cmp #5, r12
    jl rp_done5
    sub #5, r12
    inc r13
    jmp rp_div5
rp_done5:
    add #32, r13
    mov.b #0x54, &UART_TX
    mov.b r9, &UART_TX
    mov.b r13, &UART_TX
    ret

.vector 15, main
.end
)";

void setup_temp(sim::Machine& m) {
  m.adc().set_channel_series(
      1, {200, 220, 240, 260, 280, 300, 320, 340, 320, 300, 280, 260, 240, 220,
          200, 180});
}

std::string check_temp(sim::Machine& m) {
  const auto& tx = m.uart().tx_log();
  if (tx.size() != 48) return "expected 48 tx bytes";
  if (tx[0] != 'T' || tx[1] != 10 || tx[2] != 50) {
    return "wrong first conversion";
  }
  if (static_cast<int16_t>(m.bus().raw_word(0x0204)) != 5) return "wrong min";
  if (static_cast<int16_t>(m.bus().raw_word(0x0206)) != 45) return "wrong max";
  return "";
}

// ---------------------------------------------------------------- //
const char* kCharlieplexing = R"(; charlieplexing: 6 LEDs on 3 pins,
; table-driven frames with software duty-cycle dimming.
.equ FRAME, 0x0204
.org 0xE000
%CRT0%
    mov #6, r10                 ; animation sweeps
sweep:
    mov #6, r12
frame_l:
    call #render_frame
    dec r12
    jnz frame_l
    dec r10
    jnz sweep
halt:
    jmp halt

; Drive the current frame with 8 duty periods (software dimming), then
; advance the animation index.
render_frame:
    mov &FRAME, r14
    mov r14, r15
    rla r15
    rla r15
    mov pattern_table(r15), r13
    mov pattern_table+2(r15), r11
    mov #8, r9
rf_duty:
    mov r13, &P1DIR
    mov r11, &P1OUT
    mov #60, r14
rf_on:
    dec r14
    jnz rf_on
    clr &P1OUT
    mov #15, r14
rf_off:
    dec r14
    jnz rf_off
    dec r9
    jnz rf_duty
    mov &FRAME, r14
    inc r14
    cmp #6, r14
    jnz rf_store
    clr r14
rf_store:
    mov r14, &FRAME
    ret

pattern_table:
    .word 0x03, 0x01
    .word 0x03, 0x02
    .word 0x06, 0x02
    .word 0x06, 0x04
    .word 0x05, 0x01
    .word 0x05, 0x04

.vector 15, main
.end
)";

void setup_charlie(sim::Machine& m) { (void)m; }

std::string check_charlie(sim::Machine& m) {
  // 36 frames x 8 duty periods x 2 transitions each.
  if (m.port1().output_trace().size() < 500) {
    return "expected at least 500 LED transitions, saw " +
           std::to_string(m.port1().output_trace().size());
  }
  return "";
}

// ---------------------------------------------------------------- //
const char* kLcdSensor = R"(; lcd_sensor: HD44780 init, label, 3-digit
; decimal readout and a second-row bar graph.
.org 0xE000
%CRT0%
    mov #0x38, &LCD_CMD         ; function set
    mov #0x0c, &LCD_CMD         ; display on
    mov #0x06, &LCD_CMD         ; entry mode
    mov #0x01, &LCD_CMD         ; clear
    mov #4, r10                 ; refreshes
refresh:
    call #refresh_display       ; acquire + render one frame
    dec r10
    jnz refresh
halt:
    jmp halt

; Read the sensor, then redraw both LCD rows. Each controller write is
; followed by a short busy-wait (a real HD44780 needs ~37us per write).
refresh_display:
    mov #0x101, &ADC_CTL
aw:
    tst &ADC_STAT
    jz aw
    mov &ADC_MEM, r9
    mov #0x02, &LCD_CMD         ; home
    mov #30, r14
bw0:
    dec r14
    jnz bw0
    mov #label_text, r11
rd_lbl:
    mov.b @r11+, r15
    tst r15
    jz rd_val
    mov.b r15, &LCD_DATA
    mov #30, r14
bw1:
    dec r14
    jnz bw1
    jmp rd_lbl
rd_val:
    mov r9, r12
    clr r13
rd_h:
    cmp #100, r12
    jl rd_hd
    sub #100, r12
    inc r13
    jmp rd_h
rd_hd:
    mov r13, r15
    add #0x30, r15
    mov.b r15, &LCD_DATA
    mov #30, r14
bw2:
    dec r14
    jnz bw2
    clr r13
rd_t:
    cmp #10, r12
    jl rd_td
    sub #10, r12
    inc r13
    jmp rd_t
rd_td:
    mov r13, r15
    add #0x30, r15
    mov.b r15, &LCD_DATA
    mov #30, r14
bw3:
    dec r14
    jnz bw3
    mov r12, r15
    add #0x30, r15
    mov.b r15, &LCD_DATA
    mov #30, r14
bw4:
    dec r14
    jnz bw4
    mov #0xc0, &LCD_CMD         ; second row
    mov #30, r14
bw5:
    dec r14
    jnz bw5
    mov r9, r12
    clr r13
rd_b:
    cmp #100, r12
    jl rd_bars
    sub #100, r12
    inc r13
    jmp rd_b
rd_bars:
    tst r13
    jz rd_done
rd_bl:
    mov.b #0x23, &LCD_DATA      ; '#'
    mov #30, r14
bw6:
    dec r14
    jnz bw6
    dec r13
    jnz rd_bl
rd_done:
    ret

label_text:
    .asciz "T:"
    .align 2

.vector 15, main
.end
)";

void setup_lcd(sim::Machine& m) {
  m.adc().set_channel_series(1, {217, 305, 42, 999});
}

std::string check_lcd(sim::Machine& m) {
  std::string text = m.lcd().text();
  std::string expect = "T:217##T:305###T:042T:999#########";
  if (text != expect) return "bad LCD text: " + text;
  return "";
}

// ---------------------------------------------------------------- //
const char* kVulnGateway = R"(; vuln_gateway: UART packet server with a
; classic stack overflow (length-prefixed copy into an 8-byte stack
; buffer) and a function pointer in RAM. Used by the attack demos.
.equ FPTR, 0x0202
.org 0xE000
.func blink
%CRT0%
    mov #0xff, &P2DIR
    mov #blink, &FPTR
serve:
    call #recv_packet
    call #act
    mov &UART_STAT, r9
    bit #1, r9
    jnz serve
halt:
    jmp halt

; packet = [len][payload...]; copies len bytes into an 8-byte buffer
recv_packet:
    sub #8, r1                  ; allocate buf[8] on the stack
    call #read_byte             ; r9 = len (untrusted!)
    mov r9, r12
    mov r1, r11
rp_copy:
    tst r12
    jz rp_done
    call #read_byte
    mov.b r9, 0(r11)
    inc r11
    dec r12
    jmp rp_copy
rp_done:
    add #8, r1
    ret

read_byte:                      ; r9 = next rx byte or 0
    mov &UART_STAT, r9
    bit #1, r9
    jz rb_none
    mov &UART_RX, r9
    ret
rb_none:
    clr r9
    ret

act:                            ; indirect call through RAM pointer
    mov &FPTR, r13
    call r13
    ret

blink:
    xor #1, &P2OUT
    ret

unlock:                         ; privileged: never called legitimately
    mov #0xff, &P2OUT
    mov.b #'U', &UART_TX
    ret

.vector 15, main
.end
)";

void setup_vuln(sim::Machine& m) {
  (void)m;  // attack scenarios feed their own payloads
}

std::string check_vuln(sim::Machine& m) {
  (void)m;
  return "";
}

std::string expand(const char* body) {
  std::string s = std::string(kEqus) + body;
  const std::string token = "%CRT0%";
  size_t pos = s.find(token);
  if (pos != std::string::npos) s.replace(pos, token.size(), kCrt0);
  return s;
}

std::vector<AppSpec> make_apps() {
  return {
      {"light_sensor", expand(kLightSensor), setup_light, 200000, check_light},
      {"ultrasonic_ranger", expand(kUltrasonicRanger), setup_ranger, 400000,
       check_ranger},
      {"fire_sensor", expand(kFireSensor), setup_fire, 150000, check_fire},
      {"syringe_pump", expand(kSyringePump), setup_pump, 80000, check_pump},
      {"temp_sensor", expand(kTempSensor), setup_temp, 100000, check_temp},
      {"charlieplexing", expand(kCharlieplexing), setup_charlie, 120000,
       check_charlie},
      {"lcd_sensor", expand(kLcdSensor), setup_lcd, 100000, check_lcd},
  };
}

}  // namespace

const std::vector<AppSpec>& table4_apps() {
  static const std::vector<AppSpec> apps = make_apps();
  return apps;
}

const AppSpec& app_by_name(const std::string& name) {
  for (const auto& app : table4_apps()) {
    if (app.name == name) return app;
  }
  if (name == "vuln_gateway") return vuln_gateway();
  throw ConfigError("unknown app: " + name);
}

const AppSpec& vuln_gateway() {
  static const AppSpec app = {"vuln_gateway", expand(kVulnGateway), setup_vuln,
                              200000, check_vuln};
  return app;
}

WorkloadOutcome run_workload(DeviceSession& session, const AppSpec& app,
                             uint64_t cycle_budget) {
  if (cycle_budget == 0) cycle_budget = 8 * app.cycle_budget;
  app.setup(session.machine());
  auto run = session.run_to_symbol("halt", cycle_budget);

  WorkloadOutcome out;
  out.reached_halt = run.cause == sim::StopCause::kBreakpoint;
  out.cycles = run.cycles;
  out.violations = session.violation_count();
  out.last_reset = session.last_reset_reason();
  out.check_failure = app.check(session.machine());
  return out;
}

std::vector<WorkloadOutcome> run_workload_all(
    const std::vector<FleetWorkload>& items, common::ThreadPool& pool) {
  std::vector<WorkloadOutcome> outcomes(items.size());
  pool.parallel_for(items.size(), [&](size_t i) {
    const FleetWorkload& item = items[i];
    std::lock_guard<std::mutex> lock(item.session->mutex());
    outcomes[i] = run_workload(*item.session, *item.app, item.cycle_budget);
  });
  return outcomes;
}

eilid::WaveProbe wave_workload(const AppSpec& app, uint64_t cycle_budget) {
  // The spec is copied into the closure: a probe outlives the call
  // (it sits inside a RolloutPlan), so capturing the caller's
  // reference would dangle for any non-static AppSpec.
  return [spec = app, cycle_budget](const std::vector<DeviceSession*>& wave,
                                    common::ThreadPool* pool) {
    std::vector<FleetWorkload> items;
    items.reserve(wave.size());
    for (DeviceSession* session : wave) {
      items.push_back({session, &spec, cycle_budget});
    }
    run_workload_all(items, *pool);
  };
}

}  // namespace eilid::apps
