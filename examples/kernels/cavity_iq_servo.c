// RF cavity field controller: IQ demodulation of the cavity probe tone
// against an on-chip LO, with PI amplitude and phase servos driving a
// first-order cavity model. Three CORDIC evaluations per iteration plus
// sqrt/div and predicated limiters — the headline workload for the native
// codegen tier (docs/CODEGEN.md). Schedules on grid_4x4.
param float f_lo = 0.0125;       // LO frequency [cycles/iteration]
param float a_ref = 0.75;        // amplitude setpoint
param float k_p = 0.08;          // proportional gain (both loops)
param float k_i = 0.002;         // integral gain (both loops)
param float detune = 0.002;      // cavity detuning drift [rad/iteration]
param float drive_limit = 1.5;   // actuator saturation
state float ph = 0.0;            // LO phase accumulator
state float amp = 0.2;           // cavity field amplitude (plant state)
state float phase = 0.3;         // cavity phase error (plant state)
state float i_f = 0.0;           // filtered in-phase baseband
state float q_f = 0.0;           // filtered quadrature baseband
state float integ_a = 0.0;       // amplitude-loop integrator
state float integ_p = 0.0;       // phase-loop integrator
ph = ph + 6.2831853 * f_lo;
float lo_i = cosf(ph);
float lo_q = sinf(ph);
float probe = amp * sinf(ph + phase) + sensor_read(32768.0);
float i_raw = probe * lo_i;
float q_raw = probe * lo_q;
i_f = i_f + 0.05 * (i_raw - i_f);
q_f = q_f + 0.05 * (q_raw - q_f);
float a_meas = sqrtf(i_f * i_f + q_f * q_f);
float err_a = a_ref - 2.0 * a_meas;
integ_a = integ_a + k_i * err_a;
float drv_raw = k_p * err_a + integ_a;
float drv = drv_raw > drive_limit ? drive_limit : (drv_raw < 0.0 ? 0.0 : drv_raw);
float err_p = fminf(fmaxf(q_f / (a_meas + 0.001), -1.0), 1.0);
integ_p = integ_p + k_i * err_p;
float dphi_raw = k_p * err_p + integ_p;
float dphi = dphi_raw > 0.5 ? 0.5 : (dphi_raw < -0.5 ? -0.5 : dphi_raw);
amp = amp + 0.05 * (drv - amp);
phase = phase + detune - 0.08 * dphi;
sensor_write(229376.0, drv);     // ACTUATOR region (3*65536 + 32768)
sensor_write(294912.0, err_a);   // MONITOR region (4*65536 + 32768)
